"""Multivariate kernel scores for ensemble forecasts.

Members live in columns: an ensemble is a (d, m) array, one column per
member.  Weighted variants parallel the univariate ones: threshold
weighting transforms members and observation, outcome weighting
reweights members by their own weight, vertical re-scaling damps the
kernel terms and anchors a correction at a reference point.

Every score is one score of ``kernels._mv_kernel``, the engine of
all ensemble kernel scores, on a stack of one case: each per-case
function goes through ``_mv_case``, which checks one case and runs the
engine on it, so that the case gets the value that ``archive`` and the
propriety Monte Carlo of ``synthlab`` give it in a stack.  In one
dimension the energy scores take the engine's sorted-member kernel, so
they equal the ensemble CRPS and vrCRPS of ``uniscores`` bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch
from .forecasts import MvEnsemble
from .kernels import _mv_kernel
from .uniscores import ScoreValue
from .weights import ChainingFunction, CollapseOutside, WeightFunction

__all__ = [
    "MvEnsemble",
    "VariogramSpec",
    "energy_score",
    "variogram_score",
    "tw_energy_score",
    "tw_variogram_score",
    "ow_energy_score",
    "vr_energy_score",
    "vr_variogram_score",
]


@dataclass(frozen=True)
class VariogramSpec:
    """Variogram score configuration.

    ``p`` is the variogram order, ``h`` the finite, symmetric, non-negative
    proximity matrix (all ones when omitted), ``x0`` the reference point
    used only by the vertically re-scaled variant (zeros when omitted).
    """

    p: float = 0.5
    h: np.ndarray | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise ContractViolation("variogram order p must be positive and finite")
        if self.h is not None:
            h = np.asarray(self.h, dtype=float)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise DimensionMismatch("h must be a square matrix")
            if not np.all(np.isfinite(h)) or np.any(h < 0.0) or not np.allclose(h, h.T):
                raise ContractViolation("h must be finite, symmetric and non-negative")
            object.__setattr__(self, "h", h)
        if self.x0 is not None:
            x0 = np.asarray(self.x0, dtype=float)
            if not np.all(np.isfinite(x0)):
                raise ContractViolation("x0 must be finite")
            object.__setattr__(self, "x0", x0)

    def weights_for(self, d: int) -> np.ndarray:
        if self.h is None:
            return np.ones((d, d))
        if self.h.shape != (d, d):
            raise DimensionMismatch(f"h has shape {self.h.shape}, expected {(d, d)}")
        return self.h

    def reference_for(self, d: int) -> np.ndarray:
        if self.x0 is None:
            return np.zeros(d)
        if self.x0.shape != (d,):
            raise DimensionMismatch(f"x0 has shape {self.x0.shape}, expected ({d},)")
        return self.x0


def _as_mv(forecast) -> MvEnsemble:
    if isinstance(forecast, MvEnsemble):
        return forecast
    return MvEnsemble(np.asarray(forecast, dtype=float))


def _check_point(v, d: int, name: str = "observation") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (d,):
        raise DimensionMismatch(f"{name} has shape {v.shape}, expected ({d},)")
    if not np.all(np.isfinite(v)):
        raise ContractViolation(f"{name} must be finite")
    return v


def _mv_case(score: str, forecast, y, w=None, anchor=None, spec=None, fair: bool = False) -> float:
    """One multivariate score of one ensemble at one observation:
    ``kernels._mv_kernel`` on a stack of one case, so that a case gets
    the value that archive and synthlab give it in a stack.

    twes and twvs take a chaining function as ``w``, whose weight, and
    point under ``CollapseOutside``, the kernel takes.  Variogram scores
    take the order, proximities and, for vrvs, the anchor from ``spec``
    (the default spec when omitted).
    """
    ens = _as_mv(forecast)
    x, y = ens.members.T, _check_point(y, ens.dim)
    if score in ("twes", "twvs"):
        w, anchor = w.weight(), w.z0 if isinstance(w, CollapseOutside) else None
    p = h = None
    if score.endswith("vs"):
        spec = spec or VariogramSpec()
        p, h = spec.p, spec.weights_for(ens.dim)
        if score == "vrvs":
            anchor = spec.reference_for(ens.dim)
    return _mv_kernel({score: w}, anchor, p, h, fair)(x[None], y[None])[score][0]


# ---------------------------------------------------------------------------
# energy score family
# ---------------------------------------------------------------------------


def energy_score(forecast, y, fair: bool = False) -> ScoreValue:
    """Energy score of a multivariate ensemble.

    mean ||x_k - y|| - (1 / 2 m^2) sum_kl ||x_k - x_l||; reduces to the
    ensemble CRPS in one dimension.  With ``fair`` the spread term uses
    the m (m - 1) denominator; that variant needs at least two members.
    """
    return ScoreValue(_mv_case("es", forecast, y, fair=fair), "es", {"fair": fair})


def tw_energy_score(forecast, y, chaining: ChainingFunction, fair: bool = False) -> ScoreValue:
    """Energy score after passing members and observation through a
    chaining function (componentwise if the chaining is univariate).

    Under ``CollapseOutside`` it is the twes of ``kernels._mv_kernel``,
    from the binary weights of the points kept, as the archive and the
    propriety Monte Carlo score it; under any other chaining it is the
    energy score of the chained points.  The two agree to rounding."""
    value = _mv_case("twes", forecast, y, chaining, fair=fair)
    return ScoreValue(value, "twes", {"chaining": repr(chaining), "fair": fair})


def ow_energy_score(forecast, y, w: WeightFunction) -> ScoreValue:
    """Outcome-weighted energy score via member reweighting.

    Members are reweighted by their own weight; the result is scaled by
    w(y) and is zero when w(y) = 0.
    """
    return ScoreValue(_mv_case("owes", forecast, y, w), "owes", {"weight": repr(w)})


def vr_energy_score(forecast, y, w: WeightFunction, x0=None) -> ScoreValue:
    """Vertically re-scaled energy score anchored at ``x0`` (zeros by default)."""
    ens = _as_mv(forecast)
    x0 = np.zeros(ens.dim) if x0 is None else _check_point(x0, ens.dim, "x0")
    value = _mv_case("vres", ens, y, w, x0)
    return ScoreValue(value, "vres", {"weight": repr(w), "x0": x0.tolist()})


# ---------------------------------------------------------------------------
# variogram score family
# ---------------------------------------------------------------------------


def variogram_score(forecast, y, spec: VariogramSpec | None = None) -> ScoreValue:
    """Variogram score of order p (0.5 by default).

    Compares ensemble-mean pairwise increments |x_i - x_j|^p with the
    observed increments, summed over component pairs with proximity
    weights h.
    """
    spec = spec or VariogramSpec()
    return ScoreValue(_mv_case("vs", forecast, y, spec=spec), "vs", {"p": spec.p})


def tw_variogram_score(
    forecast, y, chaining: ChainingFunction, spec: VariogramSpec | None = None
) -> ScoreValue:
    """Variogram score on chained members and observation: under
    ``CollapseOutside`` the twvs of ``kernels._mv_kernel``, as the
    archive scores it, and under any other chaining the variogram score
    of the chained points."""
    spec = spec or VariogramSpec()
    value = _mv_case("twvs", forecast, y, chaining, spec=spec)
    return ScoreValue(value, "twvs", {"p": spec.p, "chaining": repr(chaining)})


def vr_variogram_score(
    forecast, y, w: WeightFunction, spec: VariogramSpec | None = None
) -> ScoreValue:
    """Vertically re-scaled variogram score.

    Applies the same re-scaling pattern as the energy variant to the
    variogram kernel; the reference point comes from ``spec.x0``.
    """
    spec = spec or VariogramSpec()
    value = _mv_case("vrvs", forecast, y, w, spec=spec)
    return ScoreValue(value, "vrvs", {"p": spec.p, "weight": repr(w)})
