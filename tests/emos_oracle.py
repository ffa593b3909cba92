"""Per-window damped Newton oracle for the EMOS fit.

One window at a time: the objective with its gradient and Hessian, the
Levenberg-Marquardt step on the coefficients with a nonzero Hessian
diagonal, and the Armijo line search, exactly as ``wverif.postprocess``
fitted each window before its fits ran in lockstep.  The stacked kernel
behind ``fit_emos`` is checked against it bit for bit; the package
itself does not use it.
"""

import numpy as np
from scipy.special import ndtr

from wverif import InsufficientData
from wverif.forecasts import _std_pdf
from wverif.postprocess import VARIANCE_FLOOR, EmosParams, _design

_MIN_CASES = 10
_INIT_THETA = np.array([0.0, 1.0, 0.0, 0.0, 0.0, np.log(0.1)])
_GRAD_TOL = 1e-6
_DECREMENT_TOL = 1e-14
_MAX_ITER = 500
_ARMIJO = 1e-4
_MAX_HALVINGS = 40


def objective_grad_hess(theta, X, var, y):
    """Mean CRPS of the regression, its gradient and its Hessian in theta."""
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


def newton_step(grad, hess):
    """Newton direction on H + lambda I and the decrement g^T (H + lambda I)^-1 g."""
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


def fit_emos_oracle(window, init: EmosParams | None = None, history: list | None = None) -> EmosParams:
    """Fit one window by CRPS minimisation, as ``fit_emos`` documents."""
    xbar, var, mhd, tpi, y = (np.asarray(a, dtype=float) for a in window)
    n = y.size
    if n < _MIN_CASES:
        raise InsufficientData(f"the fit needs at least {_MIN_CASES} cases, got {n}")
    X = _design(xbar, mhd, tpi)

    theta = _INIT_THETA if init is None else np.r_[init.beta, np.log([init.sigma0, init.sigma1])]

    f, grad, hess = objective_grad_hess(theta, X, var, y)
    n_iter = 0
    stopped = False
    with np.errstate(over="ignore", invalid="ignore"):
        # a non-finite Hessian (a NaN observation, say) ends the fit unconverged
        while np.all(np.isfinite(hess)):
            step, decrement = newton_step(grad, hess)
            if np.max(np.abs(grad)) <= _GRAD_TOL and decrement <= _DECREMENT_TOL:
                stopped = True
                break
            if n_iter == _MAX_ITER:
                break
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                trial = theta + t * step
                f_new, g_new, h_new = objective_grad_hess(trial, X, var, y)
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
