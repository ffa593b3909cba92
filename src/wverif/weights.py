"""Weight functions, chaining functions, and event definitions.

Weight functions map outcomes to non-negative emphasis values and are
used by the threshold- and outcome-weighted scores.  Chaining functions
are the non-decreasing transforms whose derivative recovers a weight
function; they drive the threshold-weighted scores.  Both come in
univariate and multivariate flavours.  Multivariate Gaussian weights
are restricted to diagonal covariances, so densities factor into
products of the margins and cdfs into products of marginal cdfs.

Only the base classes evaluate: ``WeightFunction.__call__`` (and, for
points of R^d, ``_MvWeight.__call__``) and ``ChainingFunction.transform``
coerce z, apply the subclass's formula ``_value(z)`` or ``_chain(z)`` and
return a Python float for one value; ``CollapseOutside`` has its own.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch
from .forecasts import _scalar_or_array, _std_pdf, ndtr

__all__ = [
    "WeightFunction",
    "Constant",
    "IndicatorAbove",
    "IndicatorBelow",
    "GaussPdf",
    "OneMinusGaussPdfRatio",
    "GaussCdf",
    "OneMinusGaussCdf",
    "MvGaussPdf",
    "OneMinusMvGaussPdfRatio",
    "MvGaussCdf",
    "OneMinusMvGaussCdf",
    "BoxIndicator",
    "HeatLevelIndicator",
    "ChainingFunction",
    "Identity",
    "CensorAbove",
    "CensorBelow",
    "GaussCdfChain",
    "GaussCdfComplementChain",
    "GaussPdfChain",
    "GaussPdfRatioComplementChain",
    "CollapseOutside",
    "canonical_chaining",
    "classify_heat_level",
    "heat_levels",
    "MASS_FLOOR",
]

# Forecast mass below this floor counts as zero when normalising.
MASS_FLOOR = 1e-12


def _norm_pdf(z, mu, sigma):
    # scipy.stats.norm.pdf(z, mu, sigma), bit for bit: the standard
    # density at (z - mu) / sigma, divided by sigma.
    return _std_pdf((z - mu) / sigma) / sigma


def _norm_cdf(z, mu, sigma):
    # scipy.stats.norm.cdf(z, mu, sigma), bit for bit.
    return ndtr((z - mu) / sigma)


def _check_not_nan(*params) -> None:
    """Refuse a NaN parameter (or None), which would weigh every point
    the same wrong way; +-inf stays, as a box bound or a threshold."""
    if np.isnan(np.asarray(params, dtype=float)).any():
        raise ContractViolation("weight and chaining parameters must not be NaN")


def _check_positive_sigma(sigma) -> None:
    if np.any(np.asarray(sigma, dtype=float) <= 0.0):
        raise ContractViolation("sigma must be positive")


@dataclass(frozen=True)
class _Threshold:
    """The threshold of an indicator weight or a censoring chaining function."""

    t: float

    def __post_init__(self):
        _check_not_nan(self.t)


@dataclass(frozen=True)
class _Gauss:
    """Centre and sd of the normal behind a univariate Gaussian weight or
    chaining function."""

    mu: float
    sigma: float

    def __post_init__(self):
        _check_not_nan(self.mu, self.sigma)
        _check_positive_sigma(self.sigma)


# ---------------------------------------------------------------------------
# weight functions
# ---------------------------------------------------------------------------


class WeightFunction:
    """Base class.  Instances are callables returning values in [0, inf).

    ``dim`` is 1 for univariate weights and the vector length for
    multivariate ones.  Univariate weights broadcast over arrays of any
    shape; multivariate weights accept shape (..., dim) and return
    shape (...).
    """

    __slots__ = ()

    dim = 1
    # Whether the weight only takes the values 0 and 1.
    is_binary = False

    def __call__(self, z):
        return _scalar_or_array(self._value(np.asarray(z, dtype=float)))

    def breakpoints(self) -> tuple:
        """Discontinuity locations, knots of the grids that integrate the weight."""
        return ()


@dataclass(frozen=True)
class Constant(WeightFunction):
    """w(z) = 1 everywhere, a univariate weight: it broadcasts over
    arrays of any shape.  The unit weight of R^d is a ``BoxIndicator``
    over all of R^d."""

    is_binary = True

    def _value(self, z):
        return np.ones(z.shape)


@dataclass(frozen=True)
class IndicatorAbove(_Threshold, WeightFunction):
    """w(z) = 1 if z > t else 0."""

    is_binary = True

    def breakpoints(self) -> tuple:
        return (self.t,)

    def _value(self, z):
        return (z > self.t).astype(float)


@dataclass(frozen=True)
class IndicatorBelow(_Threshold, WeightFunction):
    """w(z) = 1 if z < t else 0."""

    is_binary = True

    def breakpoints(self) -> tuple:
        return (self.t,)

    def _value(self, z):
        return (z < self.t).astype(float)


@dataclass(frozen=True)
class GaussPdf(_Gauss, WeightFunction):
    """w(z) = normal density with the given centre and sd.

    Emphasises outcomes near ``mu``.
    """

    def _value(self, z):
        return _norm_pdf(z, self.mu, self.sigma)


@dataclass(frozen=True)
class OneMinusGaussPdfRatio(_Gauss, WeightFunction):
    """w(z) = 1 - pdf(z) / pdf(mu), zero at the centre, one far out.

    Emphasises both tails at once.
    """

    def _value(self, z):
        peak = _norm_pdf(self.mu, self.mu, self.sigma)
        return np.clip(1.0 - _norm_pdf(z, self.mu, self.sigma) / peak, 0.0, 1.0)


@dataclass(frozen=True)
class GaussCdf(_Gauss, WeightFunction):
    """w(z) = normal cdf, a smooth emphasis on the right tail."""

    def _value(self, z):
        return _norm_cdf(z, self.mu, self.sigma)


@dataclass(frozen=True)
class OneMinusGaussCdf(_Gauss, WeightFunction):
    """w(z) = 1 - normal cdf, a smooth emphasis on the left tail."""

    def _value(self, z):
        return ndtr(-((z - self.mu) / self.sigma))


class _MvWeight(WeightFunction):
    __slots__ = ()

    def __call__(self, z):
        # Not via WeightFunction.__call__: perfbench's tracer wraps both, and would time it twice.
        z = np.asarray(z, dtype=float)
        if z.ndim == 0 or z.shape[-1] != self.dim:
            raise DimensionMismatch(f"expected points with last axis {self.dim}, got shape {z.shape}")
        return _scalar_or_array(self._value(z))


@dataclass(frozen=True)
class _MvGauss(_MvWeight):
    """Centre and marginal sds of a normal with diagonal covariance."""

    mu: np.ndarray
    sigma_diag: np.ndarray

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        sd = np.asarray(self.sigma_diag, dtype=float)
        if mu.ndim != 1 or mu.shape != sd.shape:
            raise DimensionMismatch("mu and sigma_diag must be 1-d arrays of equal length")
        _check_not_nan(mu, sd)
        _check_positive_sigma(sd)
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "sigma_diag", sd)

    @property
    def dim(self) -> int:
        return self.mu.size


@dataclass(frozen=True)
class MvGaussPdf(_MvGauss):
    """Multivariate normal density with diagonal covariance.

    The density is the product of the marginal densities.
    """

    def _value(self, z):
        return np.prod(_norm_pdf(z, self.mu, self.sigma_diag), axis=-1)


@dataclass(frozen=True)
class OneMinusMvGaussPdfRatio(_MvGauss):
    """1 - density(z) / density(mu) with diagonal covariance."""

    def _value(self, z):
        peak = np.prod(_norm_pdf(self.mu, self.mu, self.sigma_diag))
        out = 1.0 - np.prod(_norm_pdf(z, self.mu, self.sigma_diag), axis=-1) / peak
        return np.clip(out, 0.0, 1.0)


@dataclass(frozen=True)
class MvGaussCdf(_MvGauss):
    """Product of marginal normal cdfs (diagonal covariance)."""

    def _value(self, z):
        return np.prod(_norm_cdf(z, self.mu, self.sigma_diag), axis=-1)


@dataclass(frozen=True)
class OneMinusMvGaussCdf(_MvGauss):
    """1 - product of marginal normal cdfs (diagonal covariance)."""

    def _value(self, z):
        return 1.0 - np.prod(_norm_cdf(z, self.mu, self.sigma_diag), axis=-1)


@dataclass(frozen=True)
class BoxIndicator(_MvWeight):
    """w(z) = 1 if lower <= z <= upper componentwise, else 0."""

    lower: np.ndarray
    upper: np.ndarray

    is_binary = True

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch("lower and upper must be 1-d arrays of equal length")
        _check_not_nan(lo, hi)
        if np.any(lo > hi):
            raise ContractViolation("box must satisfy lower <= upper")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    def _value(self, z):
        within = (z >= self.lower) & (z <= self.upper)
        # The and over components, in place on the first column's view:
        # faster than np.all(within, axis=-1) for a few components.
        inside = within[..., 0]
        for j in range(1, self.dim):
            inside &= within[..., j]
        return inside.astype(float)


# ---------------------------------------------------------------------------
# heat levels
# ---------------------------------------------------------------------------

# Default thresholds (deg C) for the three-day heat classification:
# warm day at or above the first, hot day at or above the second.
HEAT_WARM = 25.0
HEAT_HOT = 27.0


def heat_levels(temps, warm: float = HEAT_WARM, hot: float = HEAT_HOT):
    """Classify three-day maximum temperature vectors into levels 1-4.

    Level 1: all three days below ``warm``.
    Level 2: one or two days at or above ``warm``.
    Level 3: all days at or above ``warm``, at least one below ``hot``.
    Level 4: all days at or above ``hot``.

    Parameters
    ----------
    temps : array_like
        Shape (..., 3); thresholds are compared with >=.
    warm, hot : float
        Thresholds, ``warm < hot``.

    Returns
    -------
    int array of shape (...), values in {1, 2, 3, 4}.  A vector with a
    NaN day has no level and is refused.
    """
    if not warm < hot:
        raise ContractViolation("warm threshold must lie below hot threshold")
    t = np.asarray(temps, dtype=float)
    if t.shape[-1:] != (3,):
        raise DimensionMismatch("heat levels are defined for 3-day vectors")
    if np.isnan(t).any():
        raise ContractViolation("heat levels are not defined for a NaN day")
    return _heat_levels(t, warm, hot)


def _heat_levels(t, warm, hot):
    """``heat_levels`` of the checked (..., 3) array ``t``."""
    n_warm = np.sum(t >= warm, axis=-1)
    all_hot = np.all(t >= hot, axis=-1)
    out = np.ones(t.shape[:-1], dtype=int)
    out[(n_warm >= 1) & (n_warm <= 2)] = 2
    out[(n_warm == 3) & ~all_hot] = 3
    out[all_hot] = 4
    return out


def classify_heat_level(temps, warm: float = HEAT_WARM, hot: float = HEAT_HOT) -> int:
    """Heat level of a single three-day vector.  See ``heat_levels``."""
    t = np.asarray(temps, dtype=float)
    if t.shape != (3,):
        raise DimensionMismatch("expected a vector of exactly 3 daily maxima")
    return int(heat_levels(t, warm, hot))


@dataclass(frozen=True)
class HeatLevelIndicator(_MvWeight):
    """w(z) = 1 when the 3-day vector z falls in the given heat level."""

    level: int
    warm: float = HEAT_WARM
    hot: float = HEAT_HOT

    dim = 3
    is_binary = True

    def __post_init__(self):
        is_int = isinstance(self.level, (int, np.integer)) and not isinstance(self.level, bool)
        if not is_int or self.level not in (1, 2, 3, 4):
            raise ContractViolation(f"heat level must be an int 1, 2, 3 or 4, got {self.level!r}")
        if not self.warm < self.hot:
            raise ContractViolation("warm threshold must lie below hot threshold")

    def _value(self, z):
        # A point with a NaN day lies in no level, as it lies in no box.
        inside = _heat_levels(z, self.warm, self.hot) == self.level
        return (inside & ~np.isnan(z).any(axis=-1)).astype(float)


# ---------------------------------------------------------------------------
# chaining functions
# ---------------------------------------------------------------------------


class ChainingFunction:
    """Non-decreasing transform v with v' equal to a weight function.

    ``weight()`` returns the weight v integrates; a univariate chaining
    takes it from its pair in ``_CHAINS``.  ``transform`` is vectorised.
    """

    __slots__ = ()

    dim = 1

    def weight(self) -> WeightFunction:
        weight = _WEIGHTS.get(type(self))
        if weight is None:  # pragma: no cover - abstract
            raise NotImplementedError
        return _with_fields(weight, self)

    def transform(self, z):
        return _scalar_or_array(self._chain(np.asarray(z, dtype=float)))

    def __call__(self, z):
        return self.transform(z)


@dataclass(frozen=True)
class Identity(ChainingFunction):
    """v(z) = z, the unweighted case."""

    def _chain(self, z):
        return z.copy()


@dataclass(frozen=True)
class CensorAbove(_Threshold, ChainingFunction):
    """v(z) = max(z, t); integrates the indicator of z > t."""

    def _chain(self, z):
        return np.maximum(z, self.t)


@dataclass(frozen=True)
class CensorBelow(_Threshold, ChainingFunction):
    """v(z) = min(z, t); integrates the indicator of z < t."""

    def _chain(self, z):
        return np.minimum(z, self.t)


def _gauss_cdf_antideriv(z, mu, sigma):
    # Antiderivative of the normal cdf:
    # (z - mu) * cdf(z) + sigma^2 * pdf(z), with its limit 0 at -inf,
    # where the product is -inf * 0.
    with np.errstate(invalid="ignore"):
        out = (z - mu) * _norm_cdf(z, mu, sigma) + sigma**2 * _norm_pdf(z, mu, sigma)
    return np.where(z == -np.inf, 0.0, out)


@dataclass(frozen=True)
class GaussCdfChain(_Gauss, ChainingFunction):
    """Antiderivative of the GaussCdf weight (right-tail emphasis)."""

    def _chain(self, z):
        return _gauss_cdf_antideriv(z, self.mu, self.sigma)


@dataclass(frozen=True)
class GaussCdfComplementChain(_Gauss, ChainingFunction):
    """Antiderivative of 1 - GaussCdf (left-tail emphasis)."""

    def _chain(self, z):
        # The limit at inf is mu, where the difference is inf - inf.
        with np.errstate(invalid="ignore"):
            out = z - _gauss_cdf_antideriv(z, self.mu, self.sigma)
        return np.where(z == np.inf, self.mu, out)


@dataclass(frozen=True)
class GaussPdfChain(_Gauss, ChainingFunction):
    """Antiderivative of the GaussPdf weight, i.e. the normal cdf."""

    def _chain(self, z):
        return _norm_cdf(z, self.mu, self.sigma)


@dataclass(frozen=True)
class GaussPdfRatioComplementChain(_Gauss, ChainingFunction):
    """Antiderivative of 1 - pdf(z)/pdf(mu) (two-sided tail emphasis)."""

    def _chain(self, z):
        peak = _norm_pdf(self.mu, self.mu, self.sigma)
        return z - _norm_cdf(z, self.mu, self.sigma) / peak


@dataclass(frozen=True)
class CollapseOutside(ChainingFunction):
    """Multivariate chaining for binary weights.

    v(z) = z where w(z) = 1, and the fixed point ``z0`` where
    w(z) = 0.  Raises if the weight produces anything but 0 or 1.
    """

    w: WeightFunction
    z0: np.ndarray

    def __post_init__(self):
        if not isinstance(self.w, WeightFunction):
            raise ContractViolation("w must be a WeightFunction")
        if not self.w.is_binary:
            raise ContractViolation("CollapseOutside requires a binary weight")
        if not isinstance(self.w, _MvWeight):
            raise ContractViolation(
                "CollapseOutside works on multivariate weights; for univariate "
                "censoring use CensorAbove or CensorBelow"
            )
        z0 = np.asarray(self.z0, dtype=float)
        if z0.ndim != 1 or z0.size != self.w.dim:
            raise DimensionMismatch("z0 must be a vector matching the weight dimension")
        _check_not_nan(z0)
        object.__setattr__(self, "z0", z0)

    @property
    def dim(self) -> int:
        return self.z0.size

    def weight(self) -> WeightFunction:
        return self.w

    def mask(self, z) -> np.ndarray:
        """The weight (...) of points (..., dim): 1 where a point is kept,
        0 where it collapses onto ``z0``."""
        mask = np.asarray(self.w(z), dtype=float)
        if not np.all((mask == 0.0) | (mask == 1.0)):
            raise ContractViolation("CollapseOutside requires a binary weight")
        return mask

    def transform(self, z):
        z = np.asarray(z, dtype=float)
        return np.where(self.mask(z)[..., None] == 1.0, z, self.z0)


# Each univariate weight and the chaining function that integrates it.
# A pair shares its field names, so each builds the other from its fields.
_CHAINS = {
    Constant: Identity,
    IndicatorAbove: CensorAbove,
    IndicatorBelow: CensorBelow,
    GaussCdf: GaussCdfChain,
    OneMinusGaussCdf: GaussCdfComplementChain,
    GaussPdf: GaussPdfChain,
    OneMinusGaussPdfRatio: GaussPdfRatioComplementChain,
}
_WEIGHTS = {chain: weight for weight, chain in _CHAINS.items()}


def _with_fields(cls, obj):
    """An instance of ``cls`` with the field values of the dataclass ``obj``."""
    return cls(*(getattr(obj, f.name) for f in fields(obj)))


def canonical_chaining(w: WeightFunction, z0=None) -> ChainingFunction:
    """The chaining function whose derivative is ``w``.

    Univariate weight families map to their closed-form antiderivatives.
    Binary multivariate weights, of one dimension too, map to
    ``CollapseOutside`` with the supplied collapse point ``z0``.
    """
    chain = _CHAINS.get(type(w))
    if chain is not None:
        return _with_fields(chain, w)
    if isinstance(w, _MvWeight) and w.is_binary:
        if z0 is None:
            raise ContractViolation("multivariate chaining needs a collapse point z0")
        return CollapseOutside(w, np.asarray(z0, dtype=float))
    raise ContractViolation(f"no canonical chaining for weight {type(w).__name__}")
