"""Multivariate kernel scores for ensemble forecasts.

Members live in columns: an ensemble is a (d, m) array, one column per
member.  Weighted variants parallel the univariate ones: threshold
weighting transforms members and observation, outcome weighting
reweights members by their own weight, vertical re-scaling damps the
kernel terms and anchors a correction at a reference point.

Every score is computed by a kernel over a stack of cases: members
(n, m, d) and observations (n, d).  ``_mv_kernel`` is the one dispatch
point: it maps score names, each with its weight, and an anchor to a
kernel that scores all of them on one stack; ``archive`` runs it for
one score on blocks of stacked cases, the propriety Monte Carlo in
``synthlab`` for all of its scores on whole samples, and each per-case
function through ``_mv_case``, which checks one case and runs it on a
stack of one.  A threshold-weighted score under a chaining other than
``CollapseOutside`` is the plain score of the chained points.
The scores of a family share one pass over the member pairs.  Energy
scores come from one kernel, ``_pair_sum``, which walks the pairs by
circular offset on blocks of ``_PAIR_BLOCK`` cases, computes each
distance once and adds it into one weighted sum per score; the
variogram scores share the increments of blocks of ``_BLOCK`` cases,
and the pair term of the re-scaled variogram score comes from weighted
moments of the increments.  Memory stays bounded however many cases
are stacked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch, WeightedMassZero
from .uniscores import ScoreValue, _vertical
from .weights import (
    MASS_FLOOR,
    ChainingFunction,
    CollapseOutside,
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
        if not (np.isfinite(self.p) and self.p > 0.0):
            raise ContractViolation("variogram order p must be positive and finite")
        if self.h is not None:
            h = np.asarray(self.h, dtype=float)
            if h.ndim != 2 or h.shape[0] != h.shape[1]:
                raise DimensionMismatch("h must be a square matrix")
            if np.any(h < 0.0) or not np.allclose(h, h.T):
                raise ContractViolation("h must be symmetric and non-negative")
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


def _member_weights(w: WeightFunction, pts: np.ndarray) -> np.ndarray:
    """Weight of each point of ``pts`` (..., d).

    A univariate weight in d = 1 keeps the trailing axis, so the result
    is reshaped to drop it.
    """
    if w.dim != pts.shape[-1]:
        raise DimensionMismatch(
            f"weight dimension {w.dim} does not match ensemble dimension {pts.shape[-1]}"
        )
    return np.asarray(w(pts), dtype=float).reshape(pts.shape[:-1])


# ---------------------------------------------------------------------------
# kernels over stacks of cases: members x (n, m, d), observations y (n, d)
# ---------------------------------------------------------------------------

# Cases per block of the variogram kernels.  This keeps each
# (block, m, d, d) increment temporary under about 0.5 MB for m = 51
# members and a few components, so scoring stays within a small, fixed
# memory budget however many cases are stacked.
_BLOCK = 16

# Cases per block of the energy kernels; their temporaries are
# (block, m) rows, about 0.2 MB for m = 51.
_PAIR_BLOCK = 512

# The scores of each family, which share one pass over member pairs.
_ENERGY = ("es", "twes", "vres", "owes")
_VARIOGRAM = ("vs", "twvs", "vrvs")


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of ``v``, a temporary that is
    squared in place so that no second array of its size is made."""
    return np.sqrt(np.square(v, out=v).sum(-1))


def _pair_sum(x: np.ndarray, weights: list) -> list:
    """sum_kl w_k w_l ||x_k - x_l|| over all ordered member pairs of each
    case of ``x`` (n, m, d): one sum (n,) per member-weight row w (n, m)
    of ``weights``, where None stands for unit weights.

    Each unordered pair is visited once and the sum doubled.  Members
    are laid out twice along a row, so the pairs (i, i + k mod m) at
    circular offset k are one slice against another; offsets
    1 <= k < m/2 take full rows, and for even m the offset m/2 takes
    half a row, whose other half would repeat its pairs.  At each offset
    the squared component differences are added in component order and
    the square root is taken, once for all the rows; each row multiplies
    the distances by w[i] * w[i + k] and sums them along the row.  The
    temporaries are (n, m) rows, never an (m, m) distance matrix, so
    callers pass blocks of cases.
    """
    n, m, d = x.shape
    comps = [np.concatenate([x[:, :, c], x[:, :, c]], 1) for c in range(d)]
    rows = [None if w is None else np.concatenate([w, w], 1) for w in weights]
    totals = [np.zeros(n) for _ in rows]
    for k in range(1, m // 2 + 1):
        j = m if 2 * k < m else m - k
        acc = None
        for c in comps:
            diff = c[:, k : k + j] - c[:, :j]
            sq = np.square(diff, out=diff)
            acc = sq if acc is None else np.add(acc, sq, out=acc)
        dist = np.sqrt(acc, out=acc)
        for total, w in zip(totals, rows):
            if w is None:
                total += dist.sum(1)
            else:
                prod = w[:, k : k + j] * w[:, :j]
                total += np.multiply(dist, prod, out=prod).sum(1)
    return [2.0 * total for total in totals]


def _increments(z: np.ndarray, p: float) -> np.ndarray:
    """Variogram increments |z_i - z_j|^p (..., d, d) of points (..., d)."""
    return np.abs(z[..., :, None] - z[..., None, :]) ** p


def _outcome_weights(wx: np.ndarray, wy: np.ndarray) -> tuple:
    """The owes member weights normalised to sum to one, and ``wy``.

    Raises WeightedMassZero for the first case, in case order, whose
    observation has weight but whose members carry no weight mass.
    """
    total = wx.sum(1)
    empty = (wy != 0.0) & (total <= MASS_FLOOR)
    if empty.any():
        raise WeightedMassZero(
            f"ensemble weight mass is {total[empty][0]:.3e}, below the floor"
        )
    # The floor only matters for cases with w(y) = 0, which score zero
    # whatever their mass; it keeps their division finite.
    return wx / np.maximum(total, MASS_FLOOR)[:, None], wy


def _energy_scores(
    x: np.ndarray, y: np.ndarray, weights: dict, anchor, fair: bool = False
) -> dict:
    """The energy-family scores of each case, from one distance pass.

    ``weights`` maps each score wanted, of es, twes, vres and owes, to
    its member and observation weights (wx (n, m), wy (n,)), or to None
    for es.  Per block of ``_PAIR_BLOCK`` cases, one ``_pair_sum`` call
    gives the pair sums of all of them:
    - es takes unit weights and divides them by 2 m^2, or by 2 m (m - 1)
      for the ``fair`` variant; vres takes w and owes the normalised weights
      pi = w / sum_k w_k, scaled by w(y) and zero where w(y) = 0;
    - twes scores points chained by collapsing those with weight 0 onto
      ``anchor`` (d,), and takes the binary weights b of the points kept.
      With c = m - sum_k b_k collapsed members, the chained pair sum is
      sum_kl b_k b_l ||x_k - x_l|| + 2 c sum_k b_k ||x_k - anchor||, and
      each member-observation distance is that of the chained points.
    """
    n, m, _ = x.shape
    es_denom = 2.0 * (m * (m - 1) if fair else m * m)
    if "owes" in weights:
        weights = {**weights, "owes": _outcome_weights(*weights["owes"])}
    out = {s: np.empty(n) for s in weights}
    for a in range(0, n, _PAIR_BLOCK):
        b = slice(a, a + _PAIR_BLOCK)
        xb, yb = x[b], y[b]
        to_y = _norm(xb - yb[:, None, :])
        if "twes" in weights or "vres" in weights:
            to_0, y_to_0 = _norm(xb - anchor), _norm(yb - anchor)
        wts = {s: None if w is None else (w[0][b], w[1][b]) for s, w in weights.items()}
        pairs = _pair_sum(xb, [None if w is None else w[0] for w in wts.values()])
        for (s, w), pair in zip(wts.items(), pairs):
            if s == "es":
                out[s][b] = to_y.mean(1) - pair / es_denom
            elif s == "twes":
                kept, kept_y = w
                to_kept_y = np.where(kept == 1.0, to_y, y_to_0[:, None])
                chained = np.where(kept_y[:, None] == 1.0, to_kept_y, kept * to_0)
                pair = pair + 2.0 * (m - kept.sum(1)) * (kept * to_0).sum(1)
                out[s][b] = chained.mean(1) - pair / (2.0 * (m * m))
            elif s == "vres":
                out[s][b] = _vertical(*w, to_y, to_0, pair, y_to_0)
            else:
                pi, wy = w
                out[s][b] = np.where(wy == 0.0, 0.0, wy * ((pi * to_y).sum(1) - 0.5 * pair))
    return out


def _variogram_scores(x: np.ndarray, y: np.ndarray, weights: dict, anchor, p: float, h) -> dict:
    """The variogram-family scores of order ``p`` with proximity weights
    ``h`` (d, d) of each case, from one pass over the member increments
    g_k = |x_ki - x_kj|^p per block of ``_BLOCK`` cases.

    ``weights`` maps each score wanted, of vs, twvs and vrvs, to its
    member and observation weights, or to None for vs.  twvs scores
    points chained by collapsing those with weight 0 onto ``anchor``,
    whose increments they take.  The vrvs pair term
    sum_kl w_k w_l sum_ij h_ij (g_kij - g_lij)^2 is
    sum_ij h_ij [2 (sum_k w_k)(sum_k w_k g_kij^2) - 2 (sum_k w_k g_kij)^2],
    from weighted moments of the increments centred on their member
    mean, without the (m, m, d, d) tensor of member pairs.
    """
    n = x.shape[0]
    gy = _increments(y, p)
    if "twvs" in weights or "vrvs" in weights:
        g0 = _increments(anchor, p)
    if "twvs" in weights:
        kept, kept_y = weights["twvs"]
        gy_kept = np.where(kept_y[:, None, None] == 1.0, gy, g0)
    if "vrvs" in weights:
        wx, wy = weights["vrvs"]
        rho_y, rho_0, pair = np.empty(wx.shape), np.empty(wx.shape), np.empty(n)
    out = {s: np.empty(n) for s in weights}
    for a in range(0, n, _BLOCK):
        b = slice(a, a + _BLOCK)
        gx = _increments(x[b], p)  # (block, m, d, d)
        if "vs" in weights or "vrvs" in weights:
            mean = gx.mean(1)
        if "vs" in weights:
            out["vs"][b] = (h * (mean - gy[b]) ** 2).sum((1, 2))
        if "twvs" in weights:
            chained = np.where(kept[b, :, None, None] == 1.0, gx, g0).mean(1)
            out["twvs"][b] = (h * (chained - gy_kept[b]) ** 2).sum((1, 2))
        if "vrvs" in weights:
            rho_y[b] = (h * (gx - gy[b, None]) ** 2).sum((2, 3))
            rho_0[b] = (h * (gx - g0) ** 2).sum((2, 3))
            gc = gx - mean[:, None]
            wg = wx[b, :, None, None] * gc
            s1 = wg.sum(1)
            s2 = (wg * gc).sum(1)
            pair[b] = 2.0 * (h * (wx[b].sum(1)[:, None, None] * s2 - s1 * s1)).sum((1, 2))
    if "vrvs" in weights:
        out["vrvs"] = _vertical(wx, wy, rho_y, rho_0, pair, (h * (gy - g0) ** 2).sum((1, 2)))
    return out


def _mv_kernel(weights: dict, anchor, p: float | None, h: np.ndarray | None, fair: bool = False):
    """The stacked kernel of one or more multivariate scores:
    (x (n, m, d), y (n, d)) -> {score: values (n,)}, in the order of ``weights``.

    ``weights`` maps each score name to its weight; es and vs ignore
    theirs.  A threshold-weighted score is its plain score on points
    chained by collapsing those of weight 0 onto the ``anchor`` (d,),
    with ``CollapseOutside``'s checks on the weight; the re-scaled
    scores are anchored there too; es and vs ignore the anchor.
    Variogram scores take the order ``p`` and proximities ``h`` (d, d),
    which the energy scores ignore.  ``fair`` takes the fair es, whose
    spread term needs m >= 2.  Each distinct weight is evaluated
    once per call, the energy scores share one pass over the member
    distances and the variogram scores one over the increments, and
    each score's values are those it gets on its own.
    """
    for s in weights:
        if s not in _ENERGY + _VARIOGRAM:
            raise ContractViolation(f"unknown multivariate score {s!r}")
    if weights.keys() & set(_VARIOGRAM):
        VariogramSpec(p=p)  # refuses an order p <= 0
    keys, evaluate = {}, {}  # score -> key, key -> points -> weights
    for s, w in weights.items():
        if s in ("es", "vs"):
            continue
        keys[s] = key = (s.startswith("tw"), id(w))
        if key not in evaluate:
            evaluate[key] = CollapseOutside(w, anchor).mask if key[0] else partial(_member_weights, w)
    anchor = None if anchor is None else np.asarray(anchor, dtype=float)

    def kernel(x, y):
        evaluated = {key: (f(x), f(y)) for key, f in evaluate.items()}
        wts = {s: evaluated[keys[s]] if s in keys else None for s in weights}
        energy = {s: w for s, w in wts.items() if s in _ENERGY}
        variogram = {s: w for s, w in wts.items() if s in _VARIOGRAM}
        out = _energy_scores(x, y, energy, anchor, fair) if energy else {}
        if variogram:
            out.update(_variogram_scores(x, y, variogram, anchor, p, h))
        return {s: out[s] for s in weights}

    return kernel


def _mv_case(score: str, forecast, y, w=None, anchor=None, spec=None, fair: bool = False) -> float:
    """One multivariate score of one ensemble at one observation:
    ``_mv_kernel`` on a stack of one case, so that a case gets the value
    that archive and synthlab give it in a stack.

    twes and twvs take a chaining function as ``w``.  Under
    ``CollapseOutside`` they take the kernel's collapse route, as archive
    scores them, except the fair twes; under any other chaining, or
    ``fair``, they are the es or vs of the chained points (componentwise
    for a univariate chaining).  Variogram scores take the order,
    proximities and, for vrvs, the anchor from ``spec`` (the default
    spec when omitted).
    """
    ens = _as_mv(forecast)
    x, y = ens.members.T, _check_point(y, ens.dim)
    if fair and ens.size < 2:
        raise ContractViolation("the fair variant needs at least two members")
    if score in ("twes", "twvs"):
        if isinstance(w, CollapseOutside) and not fair:
            w, anchor = w.w, w.z0
        else:
            score, x, y = score[2:], w.transform(x), w.transform(y)
    p = h = None
    if score in _VARIOGRAM:
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

    Under ``CollapseOutside`` without ``fair`` it is the twes of
    ``_mv_kernel``, from the binary weights of the points kept, as the
    archive and the propriety Monte Carlo score it; under any other
    chaining, or ``fair``, it is the energy score of the chained points.
    The two agree to rounding."""
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
    ``CollapseOutside`` the twvs of ``_mv_kernel``, as the archive scores
    it, and under any other chaining the variogram score of the chained
    points."""
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
