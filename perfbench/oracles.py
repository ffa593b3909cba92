"""Reference computations for the output checks.

Written apart from wverif with numpy and ``statistics.NormalDist`` only,
so a check never compares the program with itself.  Ensembles are
arrays of shape (n, m) for univariate cases and (n, d, m) for stacked
multivariate cases; every function is vectorised over the n cases.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

_STD = NormalDist()
_SQRT_PI = math.sqrt(math.pi)


def _phi(z):
    return np.exp(-0.5 * np.asarray(z, dtype=float) ** 2) / math.sqrt(2.0 * math.pi)


def _Phi(z):
    return np.vectorize(_STD.cdf, otypes=[float])(np.asarray(z, dtype=float))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------


def crps_ensemble(x, y):
    """CRPS by the sorted-member form.

    mean |x_i - y| - (1 / m^2) sum_i (2 i - m - 1) x_(i), with x_(i) the
    i-th smallest member (1-based), which equals the kernel form.
    """
    x = np.sort(np.asarray(x, dtype=float), axis=-1)
    y = np.asarray(y, dtype=float)
    m = x.shape[-1]
    coef = 2.0 * np.arange(1, m + 1) - m - 1.0
    return np.abs(x - y[..., None]).mean(-1) - (x * coef).sum(-1) / (m * m)


def twcrps_censored_ensemble(x, y, t):
    """Threshold-weighted CRPS under max(., t): the CRPS of max(x, t)
    against max(y, t)."""
    return crps_ensemble(np.maximum(x, t), np.maximum(y, t))


def brier_ensemble(x, y, t):
    """(F(t) - 1{y <= t})^2 with F the empirical cdf of the members."""
    p = (np.asarray(x) <= t).mean(-1)
    return (p - (np.asarray(y) <= t)) ** 2


def energy_score(x, y):
    """Direct energy score: mean ||x_k - y|| - (1 / 2 m^2) sum_kl ||x_k - x_l||."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    m = x.shape[-1]
    to_obs = np.sqrt(((x - y[..., None]) ** 2).sum(-2)).mean(-1)
    pair = np.sqrt(((x[..., :, None] - x[..., None, :]) ** 2).sum(-3))
    return to_obs - pair.sum((-1, -2)) / (2.0 * m * m)


def variogram_score(x, y, p=0.5):
    """Direct variogram score with unit weights:
    sum_ij (mean_k |x_ki - x_kj|^p - |y_i - y_j|^p)^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    gx = (np.abs(x[..., :, None, :] - x[..., None, :, :]) ** p).mean(-1)
    gy = np.abs(y[..., :, None] - y[..., None, :]) ** p
    return ((gx - gy) ** 2).sum((-1, -2))


def heat_level(v, warm=25.0, hot=27.0):
    """Heat level 1-4 of three-day vectors along the last axis.

    1: no day at or above ``warm``; 2: one or two; 3: all three, at
    least one below ``hot``; 4: all three at or above ``hot``.
    """
    v = np.asarray(v, dtype=float)
    n_warm = (v >= warm).sum(-1)
    level = np.where(n_warm == 0, 1, np.where(n_warm < 3, 2, 3))
    return np.where((v >= hot).all(-1), 4, level)


def ranks(x, y):
    """1-based rank of y among the members (no ties assumed)."""
    return 1 + (np.asarray(x) < np.asarray(y)[..., None]).sum(-1)


# ---------------------------------------------------------------------------
# normal forecasts
# ---------------------------------------------------------------------------


def normal_crps(mu, sigma, y):
    """Closed-form CRPS of N(mu, sigma^2)."""
    z = (np.asarray(y, dtype=float) - mu) / sigma
    return sigma * (z * (2.0 * _Phi(z) - 1.0) + 2.0 * _phi(z) - 1.0 / _SQRT_PI)


def _G(a):
    """Antiderivative of Phi^2 vanishing at -inf:
    a Phi(a)^2 + 2 phi(a) Phi(a) - Phi(sqrt(2) a) / sqrt(pi)."""
    a = np.asarray(a, dtype=float)
    Pa = _Phi(a)
    return a * Pa**2 + 2.0 * _phi(a) * Pa - _Phi(math.sqrt(2.0) * a) / _SQRT_PI


def twcrps_censored_normal(mu, sigma, y, t):
    """Threshold-weighted CRPS of N(mu, sigma^2) under max(., t):
    sigma [CRPS_0(z) - I(a)], z = (max(y, t) - mu) / sigma,
    a = (t - mu) / sigma, I = _G."""
    z = (np.maximum(y, t) - np.asarray(mu, dtype=float)) / sigma
    a = (t - np.asarray(mu, dtype=float)) / sigma
    crps0 = z * (2.0 * _Phi(z) - 1.0) + 2.0 * _phi(z) - 1.0 / _SQRT_PI
    return sigma * (crps0 - _G(a))


def crps_truncated_normal(mu, sigma, y, t):
    """CRPS at y > t of N(mu, sigma^2) truncated to (t, inf).

    With a = (t - mu) / sigma, z = (y - mu) / sigma, c = Phi(a) and
    D = 1 - c, the integral of F^2 over (a, z) plus (1 - F)^2 over
    (z, inf) is [G(z) - G(a) - 2 c (z Phi(z) + phi(z) - a c - phi(a))
    + c^2 (z - a) + G(-z)] / D^2, G the antiderivative of Phi^2.
    """
    a = (t - np.asarray(mu, dtype=float)) / sigma
    z = (np.asarray(y, dtype=float) - mu) / sigma
    c = _Phi(a)
    inner = (
        _G(z) - _G(a)
        - 2.0 * c * (z * _Phi(z) + _phi(z) - a * c - _phi(a))
        + c**2 * (z - a)
        + _G(-z)
    )
    return sigma * inner / (1.0 - c) ** 2


def crps_truncated_normal_grid(mu, sigma, y, t, n=200_001):
    """The same CRPS by the trapezoid rule on a fine grid (one case);
    the closed form is checked against it."""
    c = _STD.cdf((t - mu) / sigma)
    total = 0.0
    for lo, hi, step in ((t, y, 0.0), (y, max(y, mu) + 12.0 * sigma, 1.0)):
        z = np.linspace(lo, hi, n)
        f = ((_Phi((z - mu) / sigma) - c) / (1.0 - c) - step) ** 2
        total += float(np.sum(0.5 * (f[1:] + f[:-1]) * np.diff(z)))
    return total


def normal_cdf(mu, sigma, x):
    return _Phi((np.asarray(x, dtype=float) - mu) / sigma)


def ecc_quantiles(mu, sigma, m):
    """Equidistant quantiles at levels (i - 1/2) / m, i = 1..m."""
    dist = NormalDist(float(mu), float(sigma))
    return np.array([dist.inv_cdf((i - 0.5) / m) for i in range(1, m + 1)])


def ecc(raw, mus, sigmas):
    """Ensemble copula coupling of a (d, m) raw ensemble: the oracle
    quantiles of each margin placed in the raw rank order (ties by
    member index)."""
    raw = np.asarray(raw, dtype=float)
    d, m = raw.shape
    out = np.empty_like(raw)
    for i in range(d):
        order = np.argsort(raw[i], kind="stable")
        out[i, order] = ecc_quantiles(mus[i], sigmas[i], m)
    return out
