import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from wverif import (
    CensorAbove,
    ContractViolation,
    DimensionMismatch,
    Ensemble,
    Identity,
    MvEnsemble,
    VariogramSpec,
    WeightedMassZero,
    crps_ensemble,
    energy_score,
    tw_energy_score,
    tw_variogram_score,
    variogram_score,
    vrcrps,
)
from wverif.mvscores import ow_energy_score, vr_energy_score, vr_variogram_score
from wverif.weights import BoxIndicator, CollapseOutside, GaussCdf, MvGaussCdf, MvGaussPdf
from wverif import mvscores


def _rand_ens(rng, d=3, m=8):
    return MvEnsemble(rng.normal(size=(d, m)))


def test_mv_ensemble_validation():
    e = MvEnsemble(np.array([[0.0, 2.0], [0.0, 0.0]]))
    assert e.dim == 2
    assert e.size == 2
    with pytest.raises(ContractViolation):
        MvEnsemble(np.array([1.0, 2.0]))
    with pytest.raises(ContractViolation):
        MvEnsemble(np.array([[np.inf, 0.0]]))


def test_energy_score_hand_value():
    e = MvEnsemble(np.array([[0.0, 2.0], [0.0, 0.0]]))
    y = np.array([1.0, 0.0])
    assert energy_score(e, y).value == pytest.approx(0.5)
    assert energy_score(e, y, fair=True).value == pytest.approx(0.0)


def test_energy_score_single_member_is_distance():
    e = MvEnsemble(np.array([[1.0], [2.0]]))
    y = np.array([4.0, 6.0])
    assert energy_score(e, y).value == pytest.approx(5.0)


def test_energy_score_reduces_to_crps_in_1d():
    rng = np.random.default_rng(21)
    for _ in range(50):
        x = rng.normal(size=7)
        y = float(rng.normal())
        a = energy_score(MvEnsemble(x[None, :]), np.array([y])).value
        b = crps_ensemble(Ensemble(x), y).value
        assert abs(a - b) < 1e-12


def test_vr_energy_score_reduces_to_vrcrps_in_1d():
    rng = np.random.default_rng(22)
    w = GaussCdf(0.2, 0.8)
    for _ in range(20):
        x = rng.normal(size=7)
        y = float(rng.normal())
        a = vr_energy_score(MvEnsemble(x[None, :]), np.array([y]), w).value
        b = vrcrps(Ensemble(x), y, w, 0.0).value
        assert abs(a - b) < 1e-12


def test_variogram_score_hand_value():
    e = MvEnsemble(np.array([[0.0], [1.0]]))
    y = np.array([0.0, 0.0])
    assert variogram_score(e, y).value == pytest.approx(2.0)
    assert variogram_score(e, np.array([0.0, 1.0])).value == pytest.approx(0.0)


def test_variogram_score_order_and_h():
    e = MvEnsemble(np.array([[0.0], [2.0]]))
    y = np.array([0.0, 1.0])
    # order 1: member increment 2, observed 1, squared gap 1 per pair
    assert variogram_score(e, y, VariogramSpec(p=1.0)).value == pytest.approx(2.0)
    h = np.zeros((2, 2))
    assert variogram_score(e, y, VariogramSpec(p=1.0, h=h)).value == 0.0
    with pytest.raises(ContractViolation):
        VariogramSpec(p=-1.0)
    with pytest.raises(ContractViolation):
        VariogramSpec(h=np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_variogram_trivial_in_1d():
    e = MvEnsemble(np.array([[0.0, 1.0, 2.0]]))
    assert variogram_score(e, np.array([5.0])).value == 0.0


def test_tw_scores_with_identity_match_unweighted():
    rng = np.random.default_rng(33)
    for _ in range(25):
        e = _rand_ens(rng)
        y = rng.normal(size=3)
        assert tw_energy_score(e, y, Identity()).value == pytest.approx(
            energy_score(e, y).value, abs=1e-12
        )
        assert tw_variogram_score(e, y, Identity()).value == pytest.approx(
            variogram_score(e, y).value, abs=1e-12
        )


def test_tw_energy_score_collapses_members():
    w = BoxIndicator(np.array([0.0, 0.0]), np.array([np.inf, np.inf]))
    z0 = np.zeros(2)
    chain = CollapseOutside(w, z0)
    members = np.array([[1.0, -1.0], [1.0, 2.0]])
    e = MvEnsemble(members)
    y = np.array([2.0, 2.0])
    # second member has a negative first component, so it collapses
    manual = MvEnsemble(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert tw_energy_score(e, y, chain).value == pytest.approx(
        energy_score(manual, y).value, abs=1e-12
    )


def test_tw_energy_score_univariate_chaining_broadcasts():
    rng = np.random.default_rng(8)
    e = _rand_ens(rng, d=2, m=5)
    y = rng.normal(size=2)
    t = 0.2
    a = tw_energy_score(e, y, CensorAbove(t)).value
    manual = MvEnsemble(np.maximum(e.members, t))
    b = energy_score(manual, np.maximum(y, t)).value
    assert a == pytest.approx(b, abs=1e-12)


def test_ow_energy_score_hand_value():
    members = np.array([[1.0, 3.0], [1.0, 3.0]])
    e = MvEnsemble(members)
    w = BoxIndicator(np.zeros(2), np.array([2.0, 2.0]))
    got = ow_energy_score(e, np.array([0.0, 0.0]), w).value
    assert got == pytest.approx(np.sqrt(2.0))


def test_ow_energy_score_zero_outside():
    e = MvEnsemble(np.array([[1.0], [1.0]]))
    w = BoxIndicator(np.zeros(2), np.array([2.0, 2.0]))
    assert ow_energy_score(e, np.array([5.0, 5.0]), w).value == 0.0


def test_ow_energy_score_mass_floor():
    e = MvEnsemble(np.array([[5.0], [5.0]]))
    w = BoxIndicator(np.zeros(2), np.array([2.0, 2.0]))
    with pytest.raises(WeightedMassZero):
        ow_energy_score(e, np.array([1.0, 1.0]), w)


def _vr_energy_loops(members, y, w, x0):
    x = members.T
    m = x.shape[0]
    wx = np.array([float(w(xi)) for xi in x])
    wy = float(w(y))
    t1 = sum(np.linalg.norm(x[i] - y) * wx[i] for i in range(m)) / m * wy
    t2 = sum(
        np.linalg.norm(x[i] - x[j]) * wx[i] * wx[j]
        for i in range(m)
        for j in range(m)
    ) / (2.0 * m * m)
    md = sum(np.linalg.norm(x[i] - x0) * wx[i] for i in range(m)) / m
    t3 = (md - np.linalg.norm(y - x0) * wy) * (wx.mean() - wy)
    return t1 - t2 + t3


def test_vr_energy_score_against_loops():
    rng = np.random.default_rng(44)
    w = MvGaussCdf(np.array([0.3, -0.2, 0.1]), np.array([1.0, 0.8, 1.2]))
    for _ in range(10):
        e = _rand_ens(rng, d=3, m=6)
        y = rng.normal(size=3)
        x0 = rng.normal(size=3)
        got = vr_energy_score(e, y, w, x0=x0).value
        want = _vr_energy_loops(e.members, y, w, x0)
        assert got == pytest.approx(want, abs=1e-12)


def _vr_variogram_loops(members, y, w, spec, d):
    x = members.T
    m = x.shape[0]
    h = spec.weights_for(d)
    x0 = spec.reference_for(d)

    def gamma(u):
        return np.abs(u[:, None] - u[None, :]) ** spec.p

    def rho(u, z):
        return float(np.sum(h * (gamma(u) - gamma(z)) ** 2))

    wx = np.array([float(w(xi)) for xi in x])
    wy = float(w(y))
    t1 = sum(rho(x[i], y) * wx[i] for i in range(m)) / m * wy
    t2 = sum(
        rho(x[i], x[j]) * wx[i] * wx[j] for i in range(m) for j in range(m)
    ) / (2.0 * m * m)
    md = sum(rho(x[i], x0) * wx[i] for i in range(m)) / m
    t3 = (md - rho(y, x0) * wy) * (wx.mean() - wy)
    return t1 - t2 + t3


def test_vr_variogram_score_against_loops():
    rng = np.random.default_rng(45)
    w = MvGaussCdf(np.zeros(3), np.ones(3))
    spec = VariogramSpec(p=0.5, x0=np.array([0.1, -0.3, 0.2]))
    for _ in range(10):
        e = _rand_ens(rng, d=3, m=5)
        y = rng.normal(size=3)
        got = vr_variogram_score(e, y, w, spec).value
        want = _vr_variogram_loops(e.members, y, w, spec, 3)
        assert got == pytest.approx(want, abs=1e-11)


def test_vr_scores_with_binary_weight_match_collapsed_tw():
    """For a 0/1 weight and the anchor at the collapse point, the
    re-scaled scores coincide with the chained ones."""
    rng = np.random.default_rng(46)
    lower = np.array([-0.2, -0.2, -0.2])
    w = BoxIndicator(lower, np.full(3, np.inf))
    z0 = lower.copy()
    chain = CollapseOutside(w, z0)
    for _ in range(40):
        e = _rand_ens(rng, d=3, m=7)
        y = rng.normal(size=3)
        a = vr_energy_score(e, y, w, x0=z0).value
        b = tw_energy_score(e, y, chain).value
        assert abs(a - b) < 1e-12
        spec = VariogramSpec(p=0.5, x0=z0)
        c = vr_variogram_score(e, y, w, spec).value
        d = tw_variogram_score(e, y, chain, spec).value
        assert abs(c - d) < 1e-12


@pytest.mark.parametrize("n, m", [(20, 1), (mvscores._BLOCK + 7, 5)])
def test_stacked_kernels_match_per_case_functions(n, m):
    """The kernels behind the propriety Monte Carlo and the archive
    score a stack of cases as the public functions score each case."""
    rng = np.random.default_rng(49)
    d = 3
    x = rng.normal(size=(n, m, d))
    y = rng.normal(size=(n, d))
    lower = np.full(d, -0.3)
    chain = CollapseOutside(BoxIndicator(lower, np.full(d, np.inf)), lower)
    w = MvGaussCdf(lower, np.ones(d))
    h = np.ones((d, d))
    tx, ty = chain.transform(x), chain.transform(y)
    stacked = {
        "es": mvscores._energy(x, y),
        "vs": mvscores._variogram(x, y, 0.5, h),
        "twes": mvscores._energy(tx, ty),
        "twvs": mvscores._variogram(tx, ty, 0.5, h),
        "vres": mvscores._vr_energy(x, y, w, lower),
        "vrvs": mvscores._vr_variogram(x, y, w, 0.5, h, lower),
        "owes": mvscores._ow_energy(x, y, w),
    }
    per_case = {
        "es": lambda e, yi: energy_score(e, yi),
        "vs": lambda e, yi: variogram_score(e, yi),
        "twes": lambda e, yi: tw_energy_score(e, yi, chain),
        "twvs": lambda e, yi: tw_variogram_score(e, yi, chain),
        "vres": lambda e, yi: vr_energy_score(e, yi, w, x0=lower),
        "vrvs": lambda e, yi: vr_variogram_score(e, yi, w, VariogramSpec(x0=lower)),
        "owes": lambda e, yi: ow_energy_score(e, yi, w),
    }
    if m > 1:
        stacked["es_fair"] = mvscores._energy(x, y, fair=True)
        per_case["es_fair"] = lambda e, yi: energy_score(e, yi, fair=True)
    ensembles = [MvEnsemble(xi.T) for xi in x]
    for name, score in per_case.items():
        want = [score(e, yi).value for e, yi in zip(ensembles, y)]
        assert_allclose(stacked[name], want, rtol=1e-12, err_msg=name)


def test_variogram_discriminates_correlation():
    """Truth has exchangeable correlation 0.8; an ensemble with the right
    margins but no correlation scores worse on average."""
    rng = np.random.default_rng(47)
    d, m, n = 4, 40, 300
    rho = 0.8
    cov = (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))
    chol = np.linalg.cholesky(cov)
    good = 0.0
    bad = 0.0
    for _ in range(n):
        y = chol @ rng.standard_normal(d)
        xg = (rng.standard_normal((m, d)) @ chol.T).T
        xb = rng.standard_normal((d, m))
        good += variogram_score(MvEnsemble(xg), y).value
        bad += variogram_score(MvEnsemble(xb), y).value
    assert good < bad


def test_mv_dimension_checks():
    e = MvEnsemble(np.zeros((3, 4)))
    with pytest.raises(DimensionMismatch):
        energy_score(e, np.zeros(2))
    with pytest.raises(DimensionMismatch):
        ow_energy_score(e, np.zeros(3), BoxIndicator(np.zeros(2), np.ones(2)))
    with pytest.raises(ContractViolation):
        energy_score(e, np.array([np.nan, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# stacked kernels against the forms they replaced
# ---------------------------------------------------------------------------

_STACK_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _mv_stack(draw):
    """Members (n, m, d) and observations (n, d) around a common centre,
    stored either case by case or, as the per-case functions and the
    archive store them, with each component's members contiguous."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 12))
    d = draw(st.integers(1, 4))
    centre = draw(st.floats(-30.0, 30.0))
    spread = draw(st.floats(0.01, 10.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = centre + spread * rng.standard_normal((n, m, d))
    if draw(st.booleans()):
        x = np.ascontiguousarray(x.transpose(0, 2, 1)).transpose(0, 2, 1)
    y = centre + 1.5 * spread * rng.standard_normal((n, d))
    return x, y


def _values_or_error(score):
    """The values ``score()`` returns, or the message of the
    WeightedMassZero it raises."""
    try:
        return score()
    except WeightedMassZero as exc:
        return str(exc)


@_STACK_SETTINGS
@given(_mv_stack())
def test_stacked_kernels_match_per_case_functions_property(stack):
    x, y = stack
    d = x.shape[-1]
    lower = y.mean(0) - 0.5
    box = BoxIndicator(lower, np.full(d, np.inf))
    chain = CollapseOutside(box, lower)
    w = MvGaussCdf(lower, np.ones(d))
    h = np.ones((d, d))
    tx, ty = mvscores._transform(chain, x, y)
    cases = {
        "es": (lambda: mvscores._energy(x, y), lambda e, yi: energy_score(e, yi)),
        "vs": (lambda: mvscores._variogram(x, y, 0.5, h), lambda e, yi: variogram_score(e, yi)),
        "twes": (lambda: mvscores._energy(tx, ty), lambda e, yi: tw_energy_score(e, yi, chain)),
        "twvs": (
            lambda: mvscores._variogram(tx, ty, 0.5, h),
            lambda e, yi: tw_variogram_score(e, yi, chain),
        ),
        "owes": (lambda: mvscores._ow_energy(x, y, w), lambda e, yi: ow_energy_score(e, yi, w)),
        "owes_box": (
            lambda: mvscores._ow_energy(x, y, box),
            lambda e, yi: ow_energy_score(e, yi, box),
        ),
        "vres": (
            lambda: mvscores._vr_energy(x, y, box, lower),
            lambda e, yi: vr_energy_score(e, yi, box, x0=lower),
        ),
        "vrvs": (
            lambda: mvscores._vr_variogram(x, y, box, 0.5, h, lower),
            lambda e, yi: vr_variogram_score(e, yi, box, VariogramSpec(x0=lower)),
        ),
    }
    for name, (stacked, per_case) in cases.items():
        got = _values_or_error(stacked)
        want = _values_or_error(
            lambda: [per_case(MvEnsemble(xi.T), yi).value for xi, yi in zip(x, y)]
        )
        if isinstance(want, str):
            assert got == want, name
        else:
            # The per-case functions clamp negative roundoff to zero.
            assert_allclose(np.maximum(got, 0.0), want, rtol=1e-12, err_msg=name)


@pytest.mark.parametrize(
    "n, m",
    [(3, 1), (4, 2), (2, 7), (5, 8), (mvscores._PAIR_BLOCK + 7, 5), (mvscores._PAIR_BLOCK + 7, 6)],
)
@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    d=st.integers(1, 4),
    centre=st.floats(-30.0, 30.0),
    spread=st.floats(0.01, 10.0),
    weighted=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_pair_sum_equals_difference_tensor(n, m, d, centre, spread, weighted, seed):
    """The offset walk sums the same pairs as the full (m, m, d) tensor;
    only the order of summation differs."""
    rng = np.random.default_rng(seed)
    x = centre + spread * rng.standard_normal((n, m, d))
    dist = np.sqrt(((x[:, :, None, :] - x[:, None, :, :]) ** 2).sum(-1))
    if weighted:
        w = rng.uniform(0.0, 2.0, (n, m))
        w[rng.random((n, m)) < 0.3] = 0.0
        got, want = mvscores._pair_sum(x, w), (w[:, :, None] * w[:, None, :] * dist).sum((1, 2))
    else:
        got, want = mvscores._pair_sum(x), dist.sum((1, 2))
    assert_allclose(got, want, rtol=1e-13, atol=0.0)
    same = np.broadcast_to(x[:, :1], x.shape)
    assert np.array_equal(mvscores._pair_sum(same), np.zeros(n))


def _vr_variogram_tensor(x, y, w, p, h, x0):
    """vrVS of one case, members x (m, d), with the (m, m, d, d) tensor of
    increment differences between member pairs."""
    wx = mvscores._member_weights(w, x)
    wy = float(mvscores._member_weights(w, y))

    def incr(z):
        return np.abs(z[..., :, None] - z[..., None, :]) ** p

    gx, gy, g0 = incr(x), incr(y), incr(x0)
    m = x.shape[0]
    rho_y = np.einsum("ij,kij->k", h, (gx - gy) ** 2)
    rho_0 = np.einsum("ij,kij->k", h, (gx - g0) ** 2)
    rho_pairs = np.einsum("ij,klij->kl", h, (gx[:, None] - gx[None, :]) ** 2)
    pair = (wx[:, None] * wx[None, :] * rho_pairs).sum()
    term3 = ((rho_0 * wx).mean() - np.sum(h * (gy - g0) ** 2) * wy) * (wx.mean() - wy)
    return (rho_y * wx).mean() * wy - pair / (2.0 * m * m) + term3


@_STACK_SETTINGS
@given(_mv_stack(), st.sampled_from([0.5, 1.0, 2.0]), st.integers(0, 2**32 - 1))
def test_vr_variogram_moment_form_matches_pair_tensor(stack, p, seed):
    x, y = stack
    d = x.shape[-1]
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 1.0, (d, d))
    h = a + a.T
    centre = y.mean(0)
    x0 = centre + rng.standard_normal(d)
    for w in (MvGaussCdf(centre, np.ones(d)), BoxIndicator(centre, np.full(d, np.inf))):
        got = mvscores._vr_variogram(x, y, w, p, h, x0)
        want = [_vr_variogram_tensor(xi, yi, w, p, h, x0) for xi, yi in zip(x, y)]
        assert_allclose(got, want, rtol=1e-12, err_msg=repr(w))


def test_stacked_ow_energy_raises_like_the_per_case_loop():
    """The stack raises the message of its first case whose observation
    has weight and whose members carry no weight mass."""
    w = MvGaussPdf(np.zeros(2), np.ones(2))
    rng = np.random.default_rng(50)
    x = 0.1 * rng.standard_normal((5, 4, 2))
    y = 0.1 * rng.standard_normal((5, 2))
    x[0] += 40.0
    y[0] += 40.0  # w(y) underflows to 0, so the case scores 0 without a mass check
    x[2] += 5.5  # member mass about 1e-13
    x[4] += 6.0  # member mass about 1e-15
    with pytest.raises(WeightedMassZero) as per_case:
        for xi, yi in zip(x, y):
            ow_energy_score(MvEnsemble(xi.T), yi, w)
    with pytest.raises(WeightedMassZero) as stacked:
        mvscores._ow_energy(x, y, w)
    assert str(stacked.value) == str(per_case.value)
    assert "e-13" in str(stacked.value)
    assert mvscores._ow_energy(x[:2], y[:2], w)[0] == 0.0
