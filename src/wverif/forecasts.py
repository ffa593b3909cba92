"""Forecast representations.

A forecast is either an ensemble (a finite sample standing in for the
predictive distribution) or a parametric distribution.  Parametric
forecasts expose cdf/pdf/quantile/moment methods, all vectorised over
numpy arrays, plus seeded sampling.  They are ``scipy.special`` and
numpy arithmetic in the steps that ``scipy.stats`` takes, so their values
and draws equal the frozen scipy distributions' without loading
``scipy.stats``.  Like those, they take arrays of parameters that
broadcast together: one object is then a column of forecasts, whose
``cdf``, ``sf``, ``pdf`` and ``ppf`` give each forecast the bits of its
own call.  The other methods describe one forecast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch

__all__ = [
    "Forecast",
    "Ensemble",
    "Parametric",
    "Normal",
    "Logistic",
    "StudentT",
    "IndependentProduct",
]

_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _special(name: str):
    """``scipy.special.<name>``, imported on its first call and kept.

    ``scipy.special`` costs about as much to import as the rest of the
    package, and raw-ensemble scoring never calls it, so no module of
    the package imports it at top level.  The call passes its arguments
    through unchanged, so every value keeps its bits.
    """
    fn = None

    def call(*args):
        nonlocal fn
        if fn is None:
            from scipy import special

            fn = getattr(special, name)
        return fn(*args)

    call.__name__ = call.__qualname__ = name
    call.__doc__ = f"``scipy.special.{name}``, imported on the first call."
    return call


ndtr, ndtri, expit, logit, log1p, stdtr, stdtrit, poch = map(
    _special, ("ndtr", "ndtri", "expit", "logit", "log1p", "stdtr", "stdtrit", "poch")
)


def _scalar_or_array(out: np.ndarray):
    """A Python float for a 0-d result, the array itself otherwise."""
    return float(out) if out.ndim == 0 else out


def _std_pdf(u):
    """Standard normal density, computed as scipy.stats.norm computes it.

    ``u * u`` rather than ``u**2``: numpy squares arrays by multiplying,
    but raises a numpy scalar to a power with ``pow``, which can differ
    in the last bit; scipy always works on arrays.
    """
    return np.exp(-(u * u) / 2.0) / _SQRT_2PI


class Forecast:
    """Base class for all forecast representations."""

    __slots__ = ()


@dataclass(frozen=True)
class Ensemble(Forecast):
    """Univariate ensemble forecast.

    Parameters
    ----------
    members : array_like
        One-dimensional array of member values, at least one member,
        all finite.
    """

    members: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.members, dtype=float)
        if m.ndim != 1 or m.size == 0:
            raise ContractViolation("ensemble members must be a non-empty 1-d array")
        if not np.all(np.isfinite(m)):
            raise ContractViolation("ensemble members must be finite")
        object.__setattr__(self, "members", m)

    @property
    def size(self) -> int:
        return self.members.size

    def cdf(self, x):
        """Empirical cdf: fraction of members <= x."""
        x = np.asarray(x, dtype=float)
        out = np.searchsorted(np.sort(self.members), x, side="right") / self.size
        return _scalar_or_array(out)


class Parametric(Forecast):
    """Base class for univariate parametric forecasts.

    Every family here is a location-scale family whose standard member
    is symmetric about 0, so the methods below hold the location-scale
    arithmetic once.  A subclass supplies its location and scale
    (``_loc_scale`` reads the fields ``location`` and ``scale`` unless
    overridden) and the standard member's functions, named as in scipy's
    ``rv_continuous``: ``_cdf``, ``_pdf``, ``_ppf`` and the draws
    ``_rvs``, all ``scipy.special`` or numpy expressions.  The steps are
    those of ``rv_continuous`` ((x - loc) / scale, then the standard
    function; the standard quantile times scale plus loc), so every
    value equals the frozen ``scipy.stats`` object's bit for bit, NaN
    signs aside, and seeded draws keep scipy's random stream, without
    loading ``scipy.stats``.
    """

    __slots__ = ()

    def _loc_scale(self) -> tuple[float, float]:
        return self.location, self.scale

    def cdf(self, x):
        loc, scale = self._loc_scale()
        return self._cdf((np.asarray(x, dtype=float) - loc) / scale)

    def sf(self, x):
        """Survival function 1 - F(x), accurate deep in the right tail:
        F0(-z), as the standard member is symmetric."""
        loc, scale = self._loc_scale()
        return self._cdf(-((np.asarray(x, dtype=float) - loc) / scale))

    def pdf(self, x):
        loc, scale = self._loc_scale()
        return self._pdf((np.asarray(x, dtype=float) - loc) / scale) / scale

    def ppf(self, q):
        loc, scale = self._loc_scale()
        return self._ppf(np.asarray(q, dtype=float)) * scale + loc

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        loc, scale = self._loc_scale()
        return self._rvs(n, rng) * scale + loc

    def support_interval(self, tail: float = 1e-12) -> tuple[float, float]:
        """An interval carrying all but ``2 * tail`` of the mass.

        The tabulated-cdf engine of ``uniscores`` builds its grid over it.
        """
        return float(self.ppf(tail)), float(self.ppf(1.0 - tail))


def _one_forecast(forecast, what: str) -> None:
    """Refuse a column of forecasts (array parameters) where ``what`` takes one."""
    if isinstance(forecast, Parametric) and any(map(np.ndim, vars(forecast).values())):
        raise ContractViolation(f"{what}: one forecast expected, got array parameters")


@dataclass(frozen=True)
class Normal(Parametric):
    """Normal predictive distribution with mean and variance."""

    mean_: float
    variance_: float

    def __post_init__(self):
        if not (np.all(np.isfinite(self.mean_)) and np.all(np.isfinite(self.variance_))):
            raise ContractViolation("normal parameters must be finite")
        if np.any(np.less_equal(self.variance_, 0.0)):
            raise ContractViolation("normal variance must be positive")

    @property
    def sd(self):
        """A float for a scalar variance, an array otherwise."""
        return _scalar_or_array(np.sqrt(self.variance_))

    def _loc_scale(self) -> tuple[float, float]:
        return self.mean_, self.sd

    _cdf = staticmethod(ndtr)
    _pdf = staticmethod(_std_pdf)
    _ppf = staticmethod(ndtri)

    @staticmethod
    def _rvs(n, rng):
        return rng.standard_normal(n)

    def mean(self) -> float:
        return float(self.mean_)

    def variance(self) -> float:
        return float(self.variance_)


def _logistic_pdf(z):
    """scipy's standard logistic density: exp of its log-density
    y - 2 log1p(exp(y)) at y = -|z|, with scipy.special's log1p, which
    differs from numpy's in the last bit at some arguments."""
    y = -np.abs(z)
    return np.exp(y - 2.0 * log1p(np.exp(y)))


@dataclass(frozen=True)
class Logistic(Parametric):
    """Logistic predictive distribution (location, scale)."""

    location: float
    scale: float

    def __post_init__(self):
        scale = np.asarray(self.scale)
        if not (np.all((scale > 0.0) & np.isfinite(scale)) and np.all(np.isfinite(self.location))):
            raise ContractViolation("logistic scale must be positive and finite")

    _cdf = staticmethod(expit)
    _pdf = staticmethod(_logistic_pdf)
    _ppf = staticmethod(logit)

    @staticmethod
    def _rvs(n, rng):
        return rng.logistic(size=n)

    def mean(self) -> float:
        # scipy's mu * scale + loc with mu = 0, which turns -0.0 into 0.0.
        return float(0.0 + self.location)

    def variance(self) -> float:
        return float(np.pi * np.pi / 3.0 * self.scale * self.scale)


@dataclass(frozen=True)
class StudentT(Parametric):
    """Student t predictive distribution (df, location, scale).

    ``from_moments`` builds the member of this family with a given mean
    and variance, which requires df > 2.
    """

    df: float
    location: float
    scale: float

    def __post_init__(self):
        if not all(np.all(np.isfinite(p)) for p in (self.df, self.location, self.scale)):
            raise ContractViolation("student t parameters must be finite")
        if np.any(np.less_equal(self.df, 0.0)) or np.any(np.less_equal(self.scale, 0.0)):
            raise ContractViolation("student t needs df > 0 and scale > 0")

    @classmethod
    def from_moments(cls, df: float, mean: float, variance: float) -> "StudentT":
        if df <= 2.0:
            raise ContractViolation("moment matching requires df > 2")
        if variance <= 0.0:
            raise ContractViolation("variance must be positive")
        scale = float(np.sqrt(variance * (df - 2.0) / df))
        return cls(df=df, location=mean, scale=scale)

    def _cdf(self, z):
        return stdtr(self.df, z)

    def _pdf(self, z):
        # exp of scipy's t log-density, term for term.
        df = self.df
        return np.exp(
            np.log(poch(0.5 * df, 0.5))
            - 0.5 * (np.log(df) + np.log(np.pi))
            - (df + 1) / 2 * np.log1p(z * z / df)
        )

    def _ppf(self, q):
        # stdtrit(df, 0) is +inf; the lower end of the support is -inf.
        return np.where(q == 0.0, -np.inf, stdtrit(self.df, q))

    def _rvs(self, n, rng):
        return rng.standard_t(self.df, size=n)

    def mean(self) -> float:
        return float(0.0 + self.location) if self.df > 1.0 else np.inf

    def variance(self) -> float:
        df, s = self.df, self.scale
        if df > 2.0:
            return float(df / (df - 2.0) * s * s)
        return np.inf if df > 1.0 else np.nan


@dataclass(frozen=True)
class IndependentProduct(Forecast):
    """Multivariate parametric forecast with independent margins."""

    margins: tuple

    def __post_init__(self):
        margins = tuple(self.margins)
        if len(margins) == 0:
            raise ContractViolation("need at least one margin")
        for m in margins:
            if not isinstance(m, Parametric):
                raise ContractViolation("margins must be parametric forecasts")
            _one_forecast(m, "margin")
        object.__setattr__(self, "margins", margins)

    @property
    def dim(self) -> int:
        return len(self.margins)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``n`` vectors, returned with shape (n, dim)."""
        cols = [m.sample(n, rng) for m in self.margins]
        return np.column_stack(cols)

    def cdf(self, x) -> float:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"point has shape {x.shape}, forecast dimension is {self.dim}"
            )
        return float(np.prod([m.cdf(v) for m, v in zip(self.margins, x)]))


@dataclass(frozen=True)
class MvEnsemble:
    """Multivariate ensemble: a (d, m) array, one member per column."""

    members: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.members, dtype=float)
        if m.ndim != 2 or m.shape[0] < 1 or m.shape[1] < 1:
            raise ContractViolation("members must be a (d, m) array")
        if not np.all(np.isfinite(m)):
            raise ContractViolation("ensemble members must be finite")
        object.__setattr__(self, "members", m)

    @property
    def dim(self) -> int:
        return self.members.shape[0]

    @property
    def size(self) -> int:
        return self.members.shape[1]
