"""One engine for the kernel scores of ensemble forecasts.

Every ensemble score here but the Brier score is a kernel score
E rho(X, y) - E rho(X, X') / 2, and each weighting is one construction
for any kernel (Allen, Ginsbourger & Ziegel 2023, "Evaluating forecasts
for high-impact events using transformed kernel scores", SIAM/ASA J.
Uncertain. Quantif. 11(3)).  A backend (``_backend``) gives the kernel
rho as a distance between features of the points, with the pair sums
sum_kl w_k w_l rho(x_k, x_l) for a list of member-weight rows.  From
rho(x_k, y), rho(x_k, x0), rho(y, x0) and the pair sums each weighting
is written once: ``_plain``, ``_collapsed`` (the threshold-weighted
score under ``CollapseOutside``), ``_outcome`` and ``_vertical``, which
the parametric vrCRPS of ``uniscores`` also takes.  ``_mv_kernel``, the
one dispatch point, scores stacks of cases, its pair sums in blocks of
bounded memory, for ``archive``, the propriety Monte Carlo of
``synthlab`` and the per-case functions of ``uniscores`` and
``mvscores``.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .exceptions import ContractViolation, DimensionMismatch, WeightedMassZero
from .weights import MASS_FLOOR, CollapseOutside, WeightFunction, canonical_chaining

# The kernel scores: the plain CRPS, ES and VS, and their threshold-
# weighted (tw), outcome-weighted (ow) and vertically re-scaled (vr) forms.
_SCORES = ("crps", "twcrps", "vrcrps", "es", "twes", "owes", "vres", "vs", "twvs", "vrvs")

# Cases per block of the variogram kernel.  This keeps each
# (block, m, P) increment temporary, over P = d (d - 1) / 2 component
# pairs, under about 0.5 MB for m = 51 members and up to 4 components,
# so scoring stays within a small, fixed memory budget however many
# cases are stacked.
_BLOCK = 128

# Cases per block of the energy kernels; their temporaries are
# (block, m) rows, about 0.2 MB for m = 51.
_PAIR_BLOCK = 512


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


def _outcome_weights(wx: np.ndarray, wy: np.ndarray) -> tuple:
    """The member weights normalised to sum to one, and ``wy``.

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


def _plain(rho_y, pair, m: int, fair: bool):
    """mean_k rho(x_k, y) - sum_kl rho(x_k, x_l) / (2 m^2), or over
    2 m (m - 1) for the ``fair`` variant, which needs m >= 2."""
    return rho_y.mean(-1) - pair / (2.0 * (m * (m - 1) if fair else m * m))


def _collapsed(kept, kept_y, rho_y, rho_0, rho_y0, pair, m: int, fair: bool):
    """The plain score of the points chained by collapsing those of
    weight 0 onto the anchor x0, from the kernels of the points
    themselves and the binary weights b of the points kept.

    With c = m - sum_k b_k collapsed members, the chained pair sum is
    sum_kl b_k b_l rho(x_k, x_l) + 2 c sum_k b_k rho(x_k, x0), and each
    member-observation kernel is that of the chained points.
    """
    to_kept_y = np.where(kept == 1.0, rho_y, rho_y0[:, None])
    chained = np.where(kept_y[:, None] == 1.0, to_kept_y, kept * rho_0)
    pair = pair + 2.0 * (m - kept.sum(1)) * (kept * rho_0).sum(1)
    return _plain(chained, pair, m, fair)


def _outcome(pi, wy, rho_y, pair):
    """w(y) times the kernel score of the members reweighted by their
    normalised weights pi, whose pair sum is ``pair``; exactly 0 where
    w(y) = 0."""
    return np.where(wy == 0.0, 0.0, wy * ((pi * rho_y).sum(1) - 0.5 * pair))


def _vertical(e_y, e_0, e_w, wy, rho_y0, e_pair):
    """The vertically re-scaled score anchored at x0, from expectations
    over the forecast X of the re-scaled kernel: e_y = E rho(X, y) w(X),
    e_0 = E rho(X, x0) w(X), e_w = E w(X) and
    e_pair = E rho(X, X') w(X) w(X'), with wy = w(y) and
    rho_y0 = rho(y, x0):
    e_y wy - e_pair / 2 + (e_0 - rho_y0 wy) (e_w - wy).
    """
    return e_y * wy - 0.5 * e_pair + (e_0 - rho_y0 * wy) * (e_w - wy)


def _sum_last(v: np.ndarray) -> np.ndarray:
    """``v.sum(-1)`` to the bit, faster on a short last axis.

    Below 8 elements numpy's reduction adds the slices of that axis in
    order, but as a slow strided reduction; adding slice by slice gives
    the same sums several times faster.  A longer axis, or an empty one,
    is left to numpy.
    """
    if not 0 < v.shape[-1] < 8:
        return v.sum(-1)
    acc = v[..., 0].copy()
    for c in range(1, v.shape[-1]):
        acc += v[..., c]
    return acc


def _norm(v: np.ndarray) -> np.ndarray:
    """Euclidean norm over the last axis of ``v``, a temporary that is
    squared in place so that no second array of its size is made."""
    return np.sqrt(_sum_last(np.square(v, out=v)))


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


def _sorted_pair_sum(x: np.ndarray, weights: list) -> list:
    """``_pair_sum`` in one dimension, over members x (n, m, 1) sorted
    along each row: sum_ij w_i w_j |x_i - x_j| = 2 sum_j w_j x_(j) r_j
    with the weighted rank coefficients r_j = W_(j-1) + W_j - W_m, W_j the
    running sum of w up to member j (Zamo & Naveau 2018).  For unit
    weights r_j = 2j - m - 1, which a row of ones gives to the bit.  The
    rows are centred at their middle member, so that the sums keep the
    precision of the member differences."""
    m = x.shape[1]
    c = x[:, :, 0] - x[:, m // 2]
    out = []
    for w in weights:
        if w is None:
            prod = c * (2.0 * np.arange(1, m + 1) - m - 1)
        else:
            # In place: fresh temporaries cost more here than the arithmetic.
            cum = np.cumsum(w, 1)
            prod = 2.0 * cum
            prod -= w
            prod -= cum[:, -1:]
            prod *= w * c
        out.append(2.0 * prod.sum(1))
    return out


def _increments(z: np.ndarray, p: float) -> np.ndarray:
    """Variogram increments |z_i - z_j|^p (..., P) of points (..., d) over
    the P = d (d - 1) / 2 component pairs i < j."""
    i, j = np.triu_indices(z.shape[-1], 1)
    return np.abs(z[..., i] - z[..., j]) ** p


def _moment_pair_sum(hp: np.ndarray, g: np.ndarray, weights: list) -> list:
    """The variogram kernel's pair sums over increments g (n, m, P):
    sum_kl w_k w_l rho(x_k, x_l) =
    sum_p hp_p [2 (sum_k w_k)(sum_k w_k c_kp^2) - 2 (sum_k w_k c_kp)^2]
    with c the increments centred on their member mean, without the
    (m, m, P) tensor of member pairs."""
    gc = g - g.mean(1)[:, None]
    out = []
    for w in weights:
        wg = gc if w is None else w[:, :, None] * gc
        total = g.shape[1] if w is None else w.sum(1)[:, None]
        s1 = wg.sum(1)
        out.append(2.0 * (hp * (total * (wg * gc).sum(1) - s1 * s1)).sum(-1))
    return out


def _backend(family: str, d: int, p, h) -> tuple:
    """(cases per block, features, kernel, pair sums) of a family in d
    dimensions.  The variogram kernel sum_ij h_ij (g_ij(x) - g_ij(x'))^2
    takes the increments g as features, which vanish on the diagonal and
    are symmetric: the sum runs over the pairs i < j with h_ij + h_ji."""
    if family == "variogram":
        hp = (h + h.T)[np.triu_indices(d, 1)]

        def kernel(a, b):
            return _sum_last(hp * (a - b) ** 2)

        return _BLOCK, partial(_increments, p=p), kernel, partial(_moment_pair_sum, hp)
    if d == 1:
        return _PAIR_BLOCK, np.asarray, lambda a, b: np.abs(a - b)[..., 0], _sorted_pair_sum
    return _PAIR_BLOCK, np.asarray, lambda a, b: _norm(a - b), _pair_sum


def _scores(family: str, x, y, anchor, p, h, fair: bool, plan: dict) -> dict:
    """The values (n,) of each score of one family on the points x
    (n, m, d) and y (n, d): ``plan`` maps each score to its weighting
    and to the function that weighs points, None for the plain score.
    Per block, one pair-sum call gives the pair sums of all of them."""
    block, features, kernel, pair_sums = _backend(family, x.shape[-1], p, h)
    if pair_sums is _sorted_pair_sum:
        x = np.sort(x, axis=1)  # members are weighed in their sorted order too
    n, m = x.shape[:2]
    if fair and m < 2:
        raise ContractViolation("the fair variant needs at least two members")
    weighed = {f: (f(x), f(y)) for _, f in plan.values() if f is not None}
    rows = {s: None if f is None else weighed[f] for s, (_, f) in plan.items()}
    rows = {s: _outcome_weights(*w) if plan[s][0] == "ow" else w for s, w in rows.items()}
    anchored = any(weighting in ("tw", "vr") for weighting, _ in plan.values())
    fy, f0 = features(y), features(anchor) if anchored else None
    out = {s: np.empty(n) for s in plan}
    for a in range(0, n, block):
        b = slice(a, a + block)
        fx = features(x[b])
        rho_y = kernel(fx, fy[b][:, None])
        if anchored:
            rho_0, rho_y0 = kernel(fx, f0), kernel(fy[b], f0)
        wts = {s: None if w is None else (w[0][b], w[1][b]) for s, w in rows.items()}
        pairs = pair_sums(fx, [None if w is None else w[0] for w in wts.values()])
        for (s, w), pair in zip(wts.items(), pairs):
            weighting = plan[s][0]
            if weighting is None:
                out[s][b] = _plain(rho_y, pair, m, fair)
            elif weighting == "tw":
                out[s][b] = _collapsed(*w, rho_y, rho_0, rho_y0, pair, m, fair)
            elif weighting == "ow":
                out[s][b] = _outcome(*w, rho_y, pair)
            else:
                wx, wy = w
                e_y, e_0 = (rho_y * wx).mean(-1), (rho_0 * wx).mean(-1)
                out[s][b] = _vertical(e_y, e_0, wx.mean(-1), wy, rho_y0, pair / (m * m))
    return out


def _mv_kernel(weights: dict, anchor, p: float | None, h: np.ndarray | None, fair: bool = False):
    """The stacked kernel of one or more kernel scores:
    (x (n, m, d), y (n, d)) -> {score: values (n,)}, in the order of
    ``weights``, which maps each score of ``_SCORES`` to its weight.

    A threshold-weighted score takes the chaining ``canonical_chaining``
    gives its weight and the ``anchor`` (d,): under ``CollapseOutside``
    its score comes from ``_collapsed``, under any other chaining it is
    the plain score of the chained points.  The re-scaled scores are
    anchored there; variogram scores take the order ``p`` and
    proximities ``h`` (d, d); ``fair`` applies to the plain and
    threshold-weighted scores.  The scores of a family on the same
    points share one pass over the member pairs, in which each distinct
    weight is evaluated once, and each gets the values it gets alone.

    The pair sums run in blocks of ``_BLOCK`` or ``_PAIR_BLOCK`` cases,
    but the weights, chained points and sorted members are taken over
    the whole stack at once, so what a call holds grows with its stack:
    callers pass bounded stacks, ``archive`` at most ``grouping._STACK`` records
    and the propriety Monte Carlo of ``synthlab`` ``_DRAW_BLOCK`` cases.
    """
    anchor = None if anchor is None else np.asarray(anchor, dtype=float)
    # Each pass scores one family on one set of points: the members, or
    # the points of a chaining other than CollapseOutside.
    passes, weighers = {}, {}
    for s, w in weights.items():
        if s not in _SCORES:
            raise ContractViolation(f"unknown kernel score {s!r}")
        weighting = s[:2] if s[:2] in ("tw", "ow", "vr") else None
        chain = weigh = None
        if weighting == "tw":
            chain = canonical_chaining(w, anchor)
            if isinstance(chain, CollapseOutside):
                chain, weigh = None, weighers.setdefault(("tw", id(w)), chain.mask)
            else:
                weighting = None
        elif weighting is not None:
            weigh = weighers.setdefault(("w", id(w)), partial(_member_weights, w))
        family = "variogram" if s.endswith("vs") else "energy"
        passes.setdefault((family, id(chain)), (family, chain, {}))[2][s] = weighting, weigh

    def kernel(x, y):
        out = {}
        for family, chain, plan in passes.values():
            px, py = (x, y) if chain is None else (chain.transform(x), chain.transform(y))
            out.update(_scores(family, px, py, anchor, p, h, fair, plan))
        return {s: out[s] for s in weights}

    return kernel
