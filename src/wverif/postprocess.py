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
(xbar, var, mhd, tpi, obs) columns.  Each stage of the post-processing
of an archive takes its columns and returns columns: ``member_moments``
the records' member means and variances, ``rolling_emos`` their
predictions from rolling training windows, ``ecc_members`` the coupled
members of stacked cases and ``station_climatology`` each station's
climatology.
A window's fit is a generator, ``_fit_one``, that asks for each objective
evaluation and Newton step; ``_fit_chains`` runs several in lockstep with
stacked answers, and every window gets the bits it gets alone.
``fit_emos`` is its one-window wrapper, and ``predict_emos`` and
``ecc_reorder`` are one-case wrappers over ``emos_mean_variance`` and
``_ecc_place``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch, InsufficientData
from .forecasts import Ensemble, IndependentProduct, MvEnsemble, Normal
from .forecasts import _scalar_or_array, _std_pdf, ndtr
from .grouping import _blocks, _key_codes

__all__ = [
    "LAPSE_RATE",
    "VARIANCE_FLOOR",
    "StationMeta",
    "EmosParams",
    "lapse_rate_correct",
    "member_moments",
    "smooth_ensemble",
    "fit_climatology",
    "station_climatology",
    "fit_emos",
    "rolling_emos",
    "predict_emos",
    "emos_mean_variance",
    "ecc_reorder",
    "ecc_members",
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


def member_moments(members, n_members, heights=None) -> tuple:
    """Mean and (m-1) variance of the first ``n_members[i]`` entries of
    each row i of an (n, m) member array, one member count at a time;
    the variance of one member is 0.  Rows whose (model height, station
    height) row of the (n, 2) ``heights`` is not NaN are lapse-rate
    corrected first."""
    members, n_members = np.asarray(members, dtype=float), np.asarray(n_members)
    xbar, var = np.empty(n_members.size), np.zeros(n_members.size)
    for k, items in _blocks(n_members):
        x = members[items, :k]
        if heights is not None:
            h = heights[items]
            x = np.where(np.isnan(h[:, :1]), x, lapse_rate_correct(x, h[:, :1], h[:, 1:]))
        xbar[items] = x.mean(axis=1)
        if k > 1:
            var[items] = x.var(axis=1, ddof=1)
    return xbar, var


def smooth_ensemble(forecast) -> Normal:
    """Normal fit to an ensemble: member mean and (n-1) variance.

    The variance is floored at VARIANCE_FLOOR so identical members
    still produce a usable forecast.
    """
    x = forecast.members if isinstance(forecast, Ensemble) else np.asarray(forecast, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ContractViolation("smoothing needs at least two members")
    mean, var = member_moments(x[None], [x.size])
    return Normal(float(mean[0]), float(np.maximum(var[0], VARIANCE_FLOOR)))


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


def station_climatology(station_ids, obs) -> list:
    """The (station id, mean, sd, n) of the climatology of each station,
    stations sorted, fitted to its observations in record order; a
    station with too few observations for ``fit_climatology`` has no row."""
    station = _key_codes(station_ids)
    order = np.argsort(station, kind="stable")
    starts = np.flatnonzero(np.diff(station[order], prepend=-1))
    rows = []
    for i, y in zip(order[starts].tolist(), np.split(np.asarray(obs)[order], starts[1:])):
        try:
            fc = fit_climatology(y)
        except InsufficientData:
            continue
        rows.append((station_ids[i], fc.mean_, fc.sd, len(y)))
    return rows


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


def _fit_one(theta, X, var, y, history):
    """The fit of one window from ``theta``, as a generator: it yields
    ("eval", theta, X, var, y) for ``_objective_grad_hess`` and ("step",
    grad, hess) for ``_newton_steps``, takes each answer from ``send``, and
    returns the EmosParams; see ``fit_emos`` for the fit."""
    f, grad, hess = yield "eval", theta, X, var, y
    n_iter, stopped = 0, False
    # a non-finite Hessian (a NaN observation, say) ends the fit unconverged
    while np.isfinite(hess).all():
        step, decrement = yield "step", grad, hess
        if np.max(np.abs(grad)) <= _GRAD_TOL and decrement <= _DECREMENT_TOL:
            stopped = True
            break
        if n_iter == _MAX_ITER:
            break
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = theta + t * step
            f_new, g_new, h_new = yield "eval", trial, X, var, y
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


# How _fit_chains answers a stack of asks of one kind.
_ANSWERS = {"step": _newton_steps, "eval": _objective_grad_hess}


def _fit_chains(windows, inits, histories) -> list:
    """Fit several windows at once: the EmosParams of each, or None for a
    window of fewer than _MIN_CASES cases.

    ``windows`` are (xbar, var, mhd, tpi, obs) array tuples, ``inits`` their
    warm starts (or None) and ``histories`` their objective lists (or None).
    Each window's ``_fit_one`` runs in lockstep with the others: each round
    answers the pending Newton steps, then the pending evaluations, with
    one stacked call per kind of ask and shape of its arguments, so per
    window length for evaluations.  Windows are not padded to one length,
    which would change the order of their sums, so every fit takes the
    steps it takes alone.
    """
    out, fits, asks = [None] * len(windows), {}, {}
    for i, (xbar, var, mhd, tpi, y) in enumerate(windows):
        if y.size >= _MIN_CASES:
            init = inits[i]
            theta = _INIT_THETA if init is None else np.r_[init.beta, np.log([init.sigma0, init.sigma1])]
            fits[i] = _fit_one(theta, _design(xbar, mhd, tpi), var, y, histories[i])
            asks[i] = next(fits[i])
    with np.errstate(over="ignore", invalid="ignore"):
        while asks:
            for kind, answer in _ANSWERS.items():
                stacks = {}
                for i, ask in asks.items():
                    if ask[0] == kind:
                        stacks.setdefault(tuple(a.shape for a in ask[1:]), []).append(i)
                for members in stacks.values():
                    stacked = answer(*map(np.array, zip(*(asks[i][1:] for i in members))))
                    # objectives and decrements go back as Python floats, as the fits keep them
                    rows = zip(*(a.tolist() if a.ndim == 1 else a for a in stacked))
                    for i, row in zip(members, rows):
                        try:
                            asks[i] = fits[i].send(row)
                        except StopIteration as done:
                            out[i] = done.value
                            del asks[i]
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
    every accepted iterate.  The fit is the generator ``_fit_one``, run
    alone through ``_fit_chains``, which runs several in lockstep.
    """
    cols = tuple(np.asarray(a, dtype=float) for a in window)
    params = _fit_chains([cols], [init], [history])[0]
    if params is None:
        raise InsufficientData(f"the fit needs at least {_MIN_CASES} cases, got {cols[4].size}")
    return params


def rolling_emos(cols, lead, dates, sids, window_days: int) -> tuple:
    """Predict and fit the records of an archive through rolling windows.

    ``cols`` are the records' (xbar, var, mhd, tpi, obs) columns and
    ``lead``, ``dates`` and ``sids`` their lead times, init dates and
    station ids.  Each lead time is taken a day at a time in date order:
    the day's records are predicted from the lead time's last fit, then
    the regression is fitted, warm started from that fit, to the records
    of the last ``window_days`` days of the lead time through that day.
    A window of fewer than 10 cases leaves the lead time without a fit.
    Day k of every lead time is fitted at once, by ``_fit_chains``, so
    each window gets the bits ``fit_emos`` gives it.

    Returns the predictive mean and variance of each record, NaN where
    its lead time had no fit yet; the parameter rows (lead_time,
    train_through, n_train and the EmosParams fields) of every fit, by
    lead time and then date; and the number of records without a fit.
    """
    if window_days < 1:
        raise ContractViolation("the training window needs at least one day")
    lead = np.asarray(lead)
    if not lead.size:
        raise InsufficientData("rolling windows need at least one record")
    # Sorted by lead time, date and station, each day of a lead time is a
    # run of records, each lead time a run of days, and each training
    # window a run of days.
    order = np.argsort(_key_codes(lead, dates, sids))
    cols = [np.asarray(c, dtype=float)[order] for c in cols]
    starts = np.r_[0, np.flatnonzero(np.diff(_key_codes(lead, dates)[order])) + 1]
    firsts = np.r_[0, np.flatnonzero(np.diff(lead[order[starts]])) + 1].tolist()
    starts = starts.tolist()
    ends, lasts = starts[1:] + [len(order)], firsts[1:] + [len(starts)]
    mean, variance = np.full(len(order), np.nan), np.full(len(order), np.nan)
    params, fitted, n_unfit = [None] * len(firsts), [[] for _ in firsts], 0
    # Day k of every lead time at once: predict it from the lead time's
    # last fit, then fit all their windows through day k in lockstep.
    for k in range(max(q - p for p, q in zip(firsts, lasts))):
        leads_k, windows, labels = [], [], []
        for i, (p, q) in enumerate(zip(firsts, lasts)):
            if p + k >= q:
                continue
            a, b = starts[p + k], ends[p + k]
            day = order[a]
            if params[i] is None:
                n_unfit += b - a
            else:
                f = Normal(*emos_mean_variance(params[i], *(c[a:b] for c in cols[:4])))
                mean[order[a:b]], variance[order[a:b]] = f.mean_, f.variance_
            w = starts[max(p, p + k - window_days + 1)]
            leads_k.append(i)
            windows.append(tuple(c[w:b] for c in cols))
            labels.append(
                dict(lead_time=int(lead[day]), train_through=dates[day].isoformat(), n_train=b - w)
            )
        fits = _fit_chains(windows, [params[i] for i in leads_k], [None] * len(windows))
        for i, label, fit in zip(leads_k, labels, fits):
            params[i] = fit
            if fit is not None:
                fitted[i].append(label | fit.to_dict())
    return mean, variance, [row for rows in fitted for row in rows], n_unfit


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


def ecc_members(members, n_members, index, mean, variance) -> np.ndarray:
    """Ensemble copula coupling of stacked cases, one member count at a
    time.

    ``index`` is the (cases, d) array of the record indices of each case,
    as ``archive.group_multivariate`` gives it, ``members`` the (n, m)
    member array, NaN-padded past each record's ``n_members``, and
    ``mean`` and ``variance`` each record's predictive normal.  Returns
    the (cases, d, m) coupled members: the k equidistant quantiles of
    each record's normal in the rank order of its k raw members, as
    ``ecc_reorder`` places them for one case, and the padding kept.
    """
    members = np.asarray(members, dtype=float)
    out = members[index]
    for k, cases in _blocks(np.asarray(n_members)[index[:, 0]]):
        idx = index[cases]
        q = Normal(mean[idx][..., None], variance[idx][..., None]).ppf((np.arange(k) + 0.5) / k)
        out[cases, :, :k] = _ecc_place(q, members[idx, :k])
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
    margins = IndependentProduct(margins).margins
    levels = (np.arange(raw.size) + 0.5) / raw.size
    q = np.array([np.asarray(mg.ppf(levels), dtype=float) for mg in margins])
    return MvEnsemble(_ecc_place(q, raw.members))
