"""Multivariate kernel scores for ensemble forecasts.

Members live in columns: an ensemble is a (d, m) array, one column per
member.  Weighted variants parallel the univariate ones: threshold
weighting transforms members and observation, outcome weighting
reweights members by their own weight, vertical re-scaling damps the
kernel terms and anchors a correction at a reference point.

Every score is computed by a kernel over a stack of cases: members
(n, m, d) and observations (n, d).  The per-case functions check their
inputs and call the kernels with n = 1.  ``_mv_kernel`` maps a score
name, weight and anchor to its kernel; ``archive`` runs it on blocks of
stacked cases and the propriety Monte Carlo in ``synthlab`` on whole
samples.  The member-pair sums of the energy family come from one
kernel, ``_pair_sum``, which walks the pairs by circular offset on
blocks of ``_PAIR_BLOCK`` cases; the variogram kernels run in blocks of
``_BLOCK`` cases, and the pair term of the re-scaled variogram score
comes from weighted moments of the increments.  Memory stays bounded
however many cases are stacked.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch, WeightedMassZero
from .uniscores import ScoreValue, _vertical
from .weights import (
    MASS_FLOOR,
    ChainingFunction,
    CollapseOutside,
    Constant,
    WeightFunction,
)

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


@dataclass(frozen=True)
class VariogramSpec:
    """Variogram score configuration.

    ``p`` is the variogram order, ``h`` the symmetric non-negative
    proximity matrix (all ones when omitted), ``x0`` the reference point
    used only by the vertically re-scaled variant (zeros when omitted).
    """

    p: float = 0.5
    h: np.ndarray | None = None
    x0: np.ndarray | None = None

    def __post_init__(self):
        if self.p <= 0.0:
            raise ContractViolation("variogram order p must be positive")
        if self.h is not None:
            h = np.asarray(self.h, dtype=float)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise DimensionMismatch("h must be a square matrix")
            if np.any(h < 0.0) or not np.allclose(h, h.T):
                raise ContractViolation("h must be symmetric and non-negative")
            object.__setattr__(self, "h", h)
        if self.x0 is not None:
            object.__setattr__(self, "x0", np.asarray(self.x0, dtype=float))

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


def _check_obs(y, d: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (d,):
        raise DimensionMismatch(f"observation has shape {y.shape}, expected ({d},)")
    if not np.all(np.isfinite(y)):
        raise ContractViolation("observation must be finite")
    return y


def _member_weights(w: WeightFunction, pts: np.ndarray) -> np.ndarray:
    """Weight of each point of ``pts`` (..., d).

    A univariate weight in d = 1 keeps the trailing axis, so the result
    is reshaped to drop it.
    """
    if isinstance(w, Constant):
        return np.ones(pts.shape[:-1])
    if w.dim != pts.shape[-1]:
        raise DimensionMismatch(
            f"weight dimension {w.dim} does not match ensemble dimension {pts.shape[-1]}"
        )
    return np.asarray(w(pts), dtype=float).reshape(pts.shape[:-1])


def _transform(chaining: ChainingFunction, x: np.ndarray, y: np.ndarray):
    """Apply a chaining function to members x (n, m, d) and observations
    y (n, d); a univariate chaining acts on each component."""
    d = x.shape[-1]
    if chaining.dim not in (1, d):
        raise DimensionMismatch(
            f"chaining dimension {chaining.dim} does not match ensemble dimension {d}"
        )
    return (
        np.asarray(chaining.transform(x), dtype=float),
        np.asarray(chaining.transform(y), dtype=float),
    )


# ---------------------------------------------------------------------------
# kernels over stacks of cases: members x (n, m, d), observations y (n, d)
# ---------------------------------------------------------------------------

# Cases per block of the variogram kernels.  This keeps each
# (block, m, d, d) increment temporary under about 0.5 MB for m = 51
# members and a few components, so scoring stays within a small, fixed
# memory budget however many cases are stacked.
_BLOCK = 16

# Cases per block of the member-pair sums; their temporaries are
# (block, m) rows, about 0.2 MB for m = 51.
_PAIR_BLOCK = 512


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of ``v``, a temporary that is
    squared in place so that no second array of its size is made."""
    return np.sqrt(np.square(v, out=v).sum(-1))


def _pair_sum(x: np.ndarray, w: np.ndarray | None = None) -> np.ndarray:
    """sum_kl w_k w_l ||x_k - x_l|| over all ordered member pairs of each
    case of ``x`` (n, m, d), with w (n, m) or unit weights.

    Each unordered pair is visited once and the sum doubled.  Members
    are laid out twice along a row, so the pairs (i, i + k mod m) at
    circular offset k are one slice against another; offsets
    1 <= k < m/2 take full rows, and for even m the offset m/2 takes
    half a row, whose other half would repeat its pairs.  At each offset
    the squared component differences are added in component order, the
    square root is taken, and the result is multiplied by
    w[i] * w[i + k] and summed along the row.  The temporaries are
    (block, m) rows, never an (m, m) distance matrix.
    """
    n, m, d = x.shape
    out = np.zeros(n)
    for a in range(0, n, _PAIR_BLOCK):
        b = slice(a, a + _PAIR_BLOCK)
        comps = [np.concatenate([x[b, :, c], x[b, :, c]], 1) for c in range(d)]
        wb = None if w is None else np.concatenate([w[b], w[b]], 1)
        total = out[b]
        for k in range(1, m // 2 + 1):
            j = m if 2 * k < m else m - k
            acc = None
            for c in comps:
                diff = c[:, k : k + j] - c[:, :j]
                sq = np.square(diff, out=diff)
                acc = sq if acc is None else np.add(acc, sq, out=acc)
            dist = np.sqrt(acc, out=acc)
            if wb is not None:
                dist *= wb[:, k : k + j] * wb[:, :j]
            total += dist.sum(1)
    return 2.0 * out


def _increments(z: np.ndarray, p: float) -> np.ndarray:
    """Variogram increments |z_i - z_j|^p (..., d, d) of points (..., d)."""
    return np.abs(z[..., :, None] - z[..., None, :]) ** p


def _energy(x: np.ndarray, y: np.ndarray, fair: bool = False) -> np.ndarray:
    """Energy score of each case; the fair variant needs m >= 2."""
    m = x.shape[1]
    denom = m * (m - 1) if fair else m * m
    return _norm(x - y[:, None, :]).mean(1) - _pair_sum(x) / (2.0 * denom)


def _variogram(x: np.ndarray, y: np.ndarray, p: float, h: np.ndarray) -> np.ndarray:
    """Variogram score of order ``p`` with proximity weights ``h`` (d, d)."""
    n = x.shape[0]
    gy = _increments(y, p)
    out = np.empty(n)
    for a in range(0, n, _BLOCK):
        gx = _increments(x[a : a + _BLOCK], p).mean(1)
        out[a : a + _BLOCK] = (h * (gx - gy[a : a + _BLOCK]) ** 2).sum((1, 2))
    return out


def _vr_energy(x: np.ndarray, y: np.ndarray, w: WeightFunction, x0: np.ndarray) -> np.ndarray:
    """Vertically re-scaled energy score of each case, anchored at ``x0`` (d,)."""
    wx = _member_weights(w, x)
    wy = _member_weights(w, y)
    pair = _pair_sum(x, wx)
    return _vertical(wx, wy, _norm(x - y[:, None, :]), _norm(x - x0), pair, _norm(y - x0))


def _ow_energy(x: np.ndarray, y: np.ndarray, w: WeightFunction) -> np.ndarray:
    """Outcome-weighted energy score of each case.

    Members are reweighted by their own weight and the energy score of
    the reweighted ensemble is scaled by w(y); it is zero where w(y) = 0.
    Raises WeightedMassZero for the first case, in case order, whose
    observation has weight but whose members carry no weight mass.
    """
    wy = _member_weights(w, y)
    wx = _member_weights(w, x)
    total = wx.sum(1)
    empty = (wy != 0.0) & (total <= MASS_FLOOR)
    if empty.any():
        raise WeightedMassZero(
            f"ensemble weight mass is {total[empty][0]:.3e}, below the floor"
        )
    # The floor only matters for cases with w(y) = 0, which score zero
    # whatever their mass; it keeps their division finite.
    pi = wx / np.maximum(total, MASS_FLOOR)[:, None]
    out = (pi * _norm(x - y[:, None, :])).sum(1) - 0.5 * _pair_sum(x, pi)
    return np.where(wy == 0.0, 0.0, wy * out)


def _vr_variogram(
    x: np.ndarray, y: np.ndarray, w: WeightFunction, p: float, h: np.ndarray, x0: np.ndarray
) -> np.ndarray:
    """Vertically re-scaled variogram score of each case, anchored at ``x0`` (d,).

    With g_k the increments of member k, the pair term
    sum_kl w_k w_l sum_ij h_ij (g_kij - g_lij)^2 is
    sum_ij h_ij [2 (sum_k w_k)(sum_k w_k g_kij^2) - 2 (sum_k w_k g_kij)^2],
    from weighted moments of the increments centred on their member
    mean, without the (m, m, d, d) tensor of member pairs.
    """
    n = x.shape[0]
    wx = _member_weights(w, x)
    wy = _member_weights(w, y)
    gy = _increments(y, p)
    g0 = _increments(x0, p)
    rho_y = np.empty(wx.shape)
    rho_0 = np.empty(wx.shape)
    pair = np.empty(n)
    for a in range(0, n, _BLOCK):
        b = slice(a, a + _BLOCK)
        gx = _increments(x[b], p)  # (block, m, d, d)
        rho_y[b] = (h * (gx - gy[b, None]) ** 2).sum((2, 3))
        rho_0[b] = (h * (gx - g0) ** 2).sum((2, 3))
        gc = gx - gx.mean(1, keepdims=True)
        wg = wx[b, :, None, None] * gc
        s1 = wg.sum(1)
        s2 = (wg * gc).sum(1)
        pair[b] = 2.0 * (h * (wx[b].sum(1)[:, None, None] * s2 - s1 * s1)).sum((1, 2))
    rho_y0 = (h * (gy - g0) ** 2).sum((1, 2))
    return _vertical(wx, wy, rho_y, rho_0, pair, rho_y0)


def _mv_kernel(score: str, w: WeightFunction | None, anchor, p: float, h: np.ndarray):
    """The stacked kernel of a multivariate score: (x (n, m, d), y (n, d)) -> (n,).

    Weighted scores take the weight ``w`` and the anchor (d,): a
    threshold-weighted score is its plain kernel on points chained by
    collapsing those of weight 0 onto the anchor, which live only for
    the call.  Variogram scores take the order ``p`` and proximities ``h``.
    """
    if score.endswith("vs"):
        VariogramSpec(p=p)  # refuses an order p <= 0
    if score.startswith("tw"):
        chain, kernel = CollapseOutside(w, anchor), _mv_kernel(score[2:], None, None, p, h)
        return lambda x, y: kernel(*_transform(chain, x, y))
    if score == "es":
        return _energy
    if score == "vs":
        return lambda x, y: _variogram(x, y, p, h)
    if score == "owes":
        return lambda x, y: _ow_energy(x, y, w)
    if score == "vres":
        return lambda x, y: _vr_energy(x, y, w, anchor)
    if score == "vrvs":
        return lambda x, y: _vr_variogram(x, y, w, p, h, anchor)
    raise ContractViolation(f"unknown multivariate score {score!r}")


# ---------------------------------------------------------------------------
# energy score family
# ---------------------------------------------------------------------------


def energy_score(forecast, y, fair: bool = False) -> ScoreValue:
    """Energy score of a multivariate ensemble.

    mean ||x_k - y|| - (1 / 2 m^2) sum_kl ||x_k - x_l||; reduces to the
    ensemble CRPS in one dimension.
    """
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    if fair and ens.size < 2:
        raise ContractViolation("the fair variant needs at least two members")
    value = _energy(ens.members.T[None], y[None], fair)[0]
    return ScoreValue(value, "es", {"fair": fair})


def tw_energy_score(forecast, y, chaining: ChainingFunction, fair: bool = False) -> ScoreValue:
    """Energy score after passing members and observation through a
    chaining function (componentwise if the chaining is univariate)."""
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    tx, ty = _transform(chaining, ens.members.T[None], y[None])
    if fair and ens.size < 2:
        raise ContractViolation("the fair variant needs at least two members")
    value = _energy(tx, ty, fair)[0]
    return ScoreValue(value, "twes", {"chaining": repr(chaining), "fair": fair})


def ow_energy_score(forecast, y, w: WeightFunction) -> ScoreValue:
    """Outcome-weighted energy score via member reweighting.

    Members are reweighted by their own weight; the result is scaled by
    w(y) and is zero when w(y) = 0.
    """
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    value = _ow_energy(ens.members.T[None], y[None], w)[0]
    return ScoreValue(value, "owes", {"weight": repr(w)})


def vr_energy_score(forecast, y, w: WeightFunction, x0=None) -> ScoreValue:
    """Vertically re-scaled energy score anchored at ``x0`` (zeros by default)."""
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    x0 = np.zeros(ens.dim) if x0 is None else _check_obs(x0, ens.dim)
    params = {"weight": repr(w), "x0": x0.tolist()}
    value = _vr_energy(ens.members.T[None], y[None], w, x0)[0]
    return ScoreValue(value, "vres", params)


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
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    h = spec.weights_for(ens.dim)
    value = _variogram(ens.members.T[None], y[None], spec.p, h)[0]
    return ScoreValue(value, "vs", {"p": spec.p})


def tw_variogram_score(
    forecast, y, chaining: ChainingFunction, spec: VariogramSpec | None = None
) -> ScoreValue:
    """Variogram score on chained members and observation."""
    spec = spec or VariogramSpec()
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    tx, ty = _transform(chaining, ens.members.T[None], y[None])
    h = spec.weights_for(ens.dim)
    value = _variogram(tx, ty, spec.p, h)[0]
    return ScoreValue(value, "twvs", {"p": spec.p, "chaining": repr(chaining)})


def vr_variogram_score(
    forecast, y, w: WeightFunction, spec: VariogramSpec | None = None
) -> ScoreValue:
    """Vertically re-scaled variogram score.

    Applies the same re-scaling pattern as the energy variant to the
    variogram kernel; the reference point comes from ``spec.x0``.
    """
    spec = spec or VariogramSpec()
    ens = _as_mv(forecast)
    y = _check_obs(y, ens.dim)
    h = spec.weights_for(ens.dim)
    x0 = spec.reference_for(ens.dim)
    value = _vr_variogram(ens.members.T[None], y[None], w, spec.p, h, x0)[0]
    return ScoreValue(value, "vrvs", {"p": spec.p, "weight": repr(w)})
