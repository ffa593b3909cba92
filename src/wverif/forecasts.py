"""Forecast representations.

A forecast is either an ensemble (a finite sample standing in for the
predictive distribution) or a parametric distribution.  Parametric
forecasts expose cdf/pdf/quantile/moment methods, all vectorised over
numpy arrays, plus seeded sampling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

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

    Subclasses provide a frozen scipy distribution through ``_dist``;
    the methods below delegate to it.  ``_dist`` imports ``scipy.stats``
    on first use, so that importing the package does not load it.
    ``Normal`` overrides cdf, sf, pdf and ppf with direct
    ``scipy.special`` expressions, so scoring a normal forecast builds no
    frozen scipy object.
    """

    __slots__ = ()

    @property
    def _dist(self):  # pragma: no cover - abstract
        raise NotImplementedError

    def cdf(self, x):
        return self._dist.cdf(x)

    def sf(self, x):
        """Survival function 1 - F(x), accurate deep in the right tail."""
        return self._dist.sf(x)

    def pdf(self, x):
        return self._dist.pdf(x)

    def ppf(self, q):
        return self._dist.ppf(q)

    def mean(self) -> float:
        return float(self._dist.mean())

    def variance(self) -> float:
        return float(self._dist.var())

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return self._dist.rvs(size=n, random_state=rng)

    def support_interval(self, tail: float = 1e-12) -> tuple[float, float]:
        """An interval carrying all but ``2 * tail`` of the mass.

        The tabulated-cdf engine of ``uniscores`` builds its grid over it.
        """
        return float(self.ppf(tail)), float(self.ppf(1.0 - tail))


@dataclass(frozen=True)
class Normal(Parametric):
    """Normal predictive distribution with mean and variance."""

    mean_: float
    variance_: float

    def __post_init__(self):
        if not np.isfinite(self.mean_) or not np.isfinite(self.variance_):
            raise ContractViolation("normal parameters must be finite")
        if self.variance_ <= 0.0:
            raise ContractViolation("normal variance must be positive")

    @property
    def sd(self) -> float:
        return float(np.sqrt(self.variance_))

    @property
    def _dist(self):
        # Only ``sample`` still goes through the frozen object, so that
        # seeded draws keep scipy's random stream.
        from scipy import stats

        return stats.norm(self.mean_, self.sd)

    # cdf, sf, pdf and ppf repeat scipy.stats.norm's arithmetic step for
    # step ((x - mu) / sigma, then ndtr; ndtr of the negated value for sf;
    # ndtri(q) * sigma + mu), so the values are bit-identical to the frozen
    # object's at a fraction of the cost.

    def cdf(self, x):
        return special.ndtr((np.asarray(x, dtype=float) - self.mean_) / self.sd)

    def sf(self, x):
        return special.ndtr(-((np.asarray(x, dtype=float) - self.mean_) / self.sd))

    def pdf(self, x):
        sd = self.sd
        return _std_pdf((np.asarray(x, dtype=float) - self.mean_) / sd) / sd

    def ppf(self, q):
        return special.ndtri(np.asarray(q, dtype=float)) * self.sd + self.mean_

    def mean(self) -> float:
        return float(self.mean_)

    def variance(self) -> float:
        return float(self.variance_)


@dataclass(frozen=True)
class Logistic(Parametric):
    """Logistic predictive distribution (location, scale)."""

    location: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0.0 or not np.isfinite(self.scale) or not np.isfinite(self.location):
            raise ContractViolation("logistic scale must be positive and finite")

    @property
    def _dist(self):
        from scipy import stats

        return stats.logistic(self.location, self.scale)


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
        if not np.all(np.isfinite((self.df, self.location, self.scale))):
            raise ContractViolation("student t parameters must be finite")
        if self.df <= 0.0 or self.scale <= 0.0:
            raise ContractViolation("student t needs df > 0 and scale > 0")

    @classmethod
    def from_moments(cls, df: float, mean: float, variance: float) -> "StudentT":
        if df <= 2.0:
            raise ContractViolation("moment matching requires df > 2")
        if variance <= 0.0:
            raise ContractViolation("variance must be positive")
        scale = float(np.sqrt(variance * (df - 2.0) / df))
        return cls(df=df, location=mean, scale=scale)

    @property
    def _dist(self):
        from scipy import stats

        return stats.t(self.df, self.location, self.scale)


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
