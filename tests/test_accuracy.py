"""Accuracy of every kernel score of raw ensembles against a double sum.

Each of the ten ensemble kernel scores is compared with an O(m^2)
numpy double sum over the member pairs, written from the definition of
a kernel score E rho(X, y) - E rho(X, X') / 2 and of its weightings:

- the threshold-weighted score is the plain score of the chained points;
- the outcome-weighted score is w(y) times the kernel score of the
  members reweighted by their normalised weights;
- the vertically re-scaled score takes the kernel rho(x, x') w(x) w(x')
  and its correction anchored at x0.

The kernel rho is |x - x'| for the CRPS, the Euclidean distance for the
energy scores and sum_ij h_ij (g_ij(x) - g_ij(x'))^2 with increments
g_ij(x) = |x_i - x_j|^p for the variogram scores.  The oracle returns
each value with the sum of the sizes of its terms; every route declares
a bound on the engine's error relative to that sum, since a score made
of terms that cancel can only be as accurate as its largest term.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wverif import WeightedMassZero
from wverif.mvscores import MvEnsemble, VariogramSpec, vr_energy_score, vr_variogram_score
from wverif.weights import (
    MASS_FLOOR,
    BoxIndicator,
    CollapseOutside,
    GaussCdf,
    IndicatorAbove,
    IndicatorBelow,
    MvGaussCdf,
    OneMinusGaussCdf,
    OneMinusMvGaussCdf,
    canonical_chaining,
)
from wverif import kernels

# The ten scores, each with the family of its kernel.
_SCORES = {
    "crps": "energy",
    "twcrps": "energy",
    "vrcrps": "energy",
    "es": "energy",
    "twes": "energy",
    "owes": "energy",
    "vres": "energy",
    "vs": "variogram",
    "twvs": "variogram",
    "vrvs": "variogram",
}

_BLOCK = kernels._BLOCK


def _route(score: str, d: int) -> str:
    """The backend that scores ``score`` in ``d`` dimensions."""
    if _SCORES[score] == "variogram":
        return "variogram"
    return "sorted" if d == 1 else "euclidean"


# The declared bound of each route: the largest error of the engine,
# relative to the sum of the sizes of the oracle's terms.  Over 6,000
# draws of this table's domain the largest seen were 1.5e-15 (sorted),
# 4.4e-16 (Euclidean) and 2.8e-15 (variogram, whose re-scaled pair sum
# takes moments centred on the unweighted member mean).
_BOUNDS = {"sorted": 1e-14, "euclidean": 1e-14, "variogram": 1e-13}


def _engine(score, w, anchor, p, h, fair, x, y):
    """The engine's values of one score over the stack x (n, m, d), y (n, d)."""
    return kernels._mv_kernel({score: w}, anchor, p, h, fair)(x, y)[score]


# ---------------------------------------------------------------------------
# the oracle: double sums over member pairs
# ---------------------------------------------------------------------------


def _kernel(family, p=None, h=None):
    """rho(a, b) over the last axis of points a and b that broadcast."""
    if family == "energy":
        # Scaled by the largest component, so that differences below
        # 1e-154 do not underflow when squared.
        def rho(a, b):
            diff = np.abs(a - b)
            top = diff.max(-1, keepdims=True)
            return top[..., 0] * np.sqrt(((diff / np.where(top > 0.0, top, 1.0)) ** 2).sum(-1))

        return rho

    def incr(z):
        return np.abs(z[..., :, None] - z[..., None, :]) ** p

    return lambda a, b: (h * (incr(a) - incr(b)) ** 2).sum((-2, -1))


def _pairs(rho, x, wx=None):
    """sum_kl w_k w_l rho(x_k, x_l) over all ordered member pairs."""
    r = rho(x[:, :, None], x[:, None, :])
    if wx is not None:
        r = r * wx[:, :, None] * wx[:, None, :]
    return r.sum((1, 2))


def _plain(rho, x, y, fair=False):
    m = x.shape[1]
    to_y = rho(x, y[:, None]).mean(1)
    spread = _pairs(rho, x) / (2.0 * (m * (m - 1) if fair else m * m))
    return to_y - spread, to_y + spread


def _outcome(rho, x, y, wx, wy):
    """None when a case whose observation has weight has no member mass."""
    total = wx.sum(1)
    if np.any((wy != 0.0) & (total <= MASS_FLOOR)):
        return None
    pi = wx / np.where(total > 0.0, total, 1.0)[:, None]
    to_y = (pi * rho(x, y[:, None])).sum(1)
    spread = 0.5 * _pairs(rho, x, pi)
    return wy * (to_y - spread), np.abs(wy) * (to_y + spread)


def _vertical(rho, x, y, wx, wy, x0):
    m = x.shape[1]
    t1 = (rho(x, y[:, None]) * wx).mean(1) * wy
    t2 = _pairs(rho, x, wx) / (2.0 * m * m)
    a, b, c = (rho(x, x0) * wx).mean(1), rho(y, x0) * wy, wx.mean(1) - wy
    return t1 - t2 + (a - b) * c, np.abs(t1) + t2 + (np.abs(a) + np.abs(b)) * np.abs(c)


def _member_weights(w, z):
    return np.asarray(w(z), dtype=float).reshape(z.shape[:-1])


def _oracle(score, w, anchor, p, h, fair, x, y):
    """(values, sizes of their terms), or None where the engine must
    raise WeightedMassZero."""
    rho = _kernel(_SCORES[score], p, h)
    if score.startswith("tw"):
        v = CollapseOutside(w, anchor) if isinstance(w, BoxIndicator) else canonical_chaining(w)
        return _plain(rho, v.transform(x), v.transform(y), fair)
    if score[:2] in ("ow", "vr"):
        wx, wy = _member_weights(w, x), _member_weights(w, y)
        if score.startswith("ow"):
            return _outcome(rho, x, y, wx, wy)
        return _vertical(rho, x, y, wx, wy, anchor)
    return _plain(rho, x, y, fair)


# ---------------------------------------------------------------------------
# the table
# ---------------------------------------------------------------------------


def _weight(score, d, binary, side, anchor, spread):
    """A binary or continuous weight on the side ``side`` (+1 right,
    -1 left) of the anchor, univariate for the CRPS family."""
    if score.endswith("crps"):
        if binary:
            return (IndicatorAbove if side > 0 else IndicatorBelow)(float(anchor[0]))
        return (GaussCdf if side > 0 else OneMinusGaussCdf)(float(anchor[0]), spread)
    if binary or score.startswith("tw"):
        # The threshold-weighted scores of a multivariate ensemble
        # collapse onto the anchor, which needs a binary weight.
        inf = np.full(d, np.inf)
        return BoxIndicator(anchor, inf) if side > 0 else BoxIndicator(-inf, anchor)
    return (MvGaussCdf if side > 0 else OneMinusMvGaussCdf)(anchor, np.full(d, spread))


def _check(score, n, m, d, centre, spread, ties, binary, side, far, p, fair, seed):
    rng = np.random.default_rng(seed)
    x = centre + spread * rng.standard_normal((n, m, d))
    if ties:
        x = np.round(x / spread) * spread
    y = centre + 1.5 * spread * rng.standard_normal((n, d))
    anchor = centre + spread * (far + 0.5 * rng.standard_normal(d))
    a = rng.uniform(0.5, 1.5, (d, d))
    h = a + a.T
    w = None if score in ("crps", "es", "vs") else _weight(score, d, binary, side, anchor, spread)
    fair = fair and m > 1 and score in ("crps", "twcrps", "es", "twes", "vs", "twvs")
    want = _oracle(score, w, anchor, p, h, fair, x, y)
    if want is None:
        with pytest.raises(WeightedMassZero):
            _engine(score, w, anchor, p, h, fair, x, y)
        return
    got = _engine(score, w, anchor, p, h, fair, x, y)
    value, size = want
    # Below the normal range a relative bound means nothing.
    err = np.maximum(np.abs(got - value) - np.finfo(float).tiny, 0.0)
    bound = _BOUNDS[_route(score, d)]
    assert np.all(err <= bound * size), (score, (err / np.where(size > 0.0, size, 1.0)).max())


def _draws(score):
    crps_family = score.endswith("crps")
    return dict(
        n=st.sampled_from([1, 2, 5, _BLOCK + 3]),
        m=st.integers(1, 9),
        d=st.just(1) if crps_family else st.integers(1, 4),
        centre=st.floats(-50.0, 50.0),
        spread=st.floats(0.01, 10.0),
        ties=st.booleans(),
        binary=st.booleans(),
        side=st.sampled_from([1, -1]),
        # Anchors in the body, and far out on either side, where a
        # weight saturates at 0 or 1.
        far=st.sampled_from([-1e4, -40.0, -2.0, 0.0, 2.0, 40.0, 1e4]),
        p=st.sampled_from([0.5, 1.0, 2.0]),
        fair=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )


_TABLE_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)


@pytest.mark.parametrize("score", list(_SCORES))
@_TABLE_SETTINGS
@given(data=st.data())
def test_engine_matches_the_double_sum(score, data):
    _check(score, **{name: data.draw(s, label=name) for name, s in _draws(score).items()})


@pytest.mark.parametrize("score", list(_SCORES))
@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("side, far", [(1, -3.0), (1, 3.0), (-1, 3.0), (-1, -3.0)])
def test_engine_matches_the_double_sum_with_51_members(score, binary, side, far):
    d = 1 if score.endswith("crps") else 3
    _check(score, _BLOCK + 3, 51, d, 20.0, 4.0, False, binary, side, far, 0.5, False, 51)


# ---------------------------------------------------------------------------
# the per-case re-scaled scores against the double sum
# ---------------------------------------------------------------------------


def _vertical_case(e, y, w, x0, rho):
    wx = _member_weights(w, e.members.T[None])
    wy = _member_weights(w, y[None])
    return float(_vertical(rho, e.members.T[None], y[None], wx, wy, x0)[0][0])


def test_vr_energy_score_against_the_double_sum():
    rng = np.random.default_rng(44)
    w = MvGaussCdf(np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.8, 1.2]))
    for _ in range(10):
        e = MvEnsemble(rng.normal(size=(3, 6)))
        y = rng.normal(size=3)
        x0 = rng.normal(size=3)
        got = vr_energy_score(e, y, w, x0=x0).value
        assert got == pytest.approx(_vertical_case(e, y, w, x0, _kernel("energy")), abs=1e-12)


def test_vr_variogram_score_against_the_double_sum():
    rng = np.random.default_rng(45)
    w = MvGaussCdf(np.zeros(3), np.ones(3))
    spec = VariogramSpec(p=0.5, x0=np.array([0.1, -0.3, 0.2]))
    rho = _kernel("variogram", spec.p, spec.weights_for(3))
    for _ in range(10):
        e = MvEnsemble(rng.normal(size=(3, 5)))
        y = rng.normal(size=3)
        got = vr_variogram_score(e, y, w, spec).value
        assert got == pytest.approx(_vertical_case(e, y, w, spec.reference_for(3), rho), abs=1e-11)
