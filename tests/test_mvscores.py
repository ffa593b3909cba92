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
from wverif.weights import (
    BoxIndicator,
    CollapseOutside,
    Constant,
    GaussCdf,
    MvGaussCdf,
    MvGaussPdf,
)
from wverif import forecasts, kernels, mvscores


def _rand_ens(rng, d=3, m=8):
    return MvEnsemble(rng.normal(size=(d, m)))


def _kernel(score, w=None, anchor=None, p=0.5, h=None):
    """The stacked kernel of ``score`` alone: (x, y) -> values, with
    proximities all ones unless ``h`` is given."""

    def kernel(x, y):
        d = x.shape[-1]
        hd = np.ones((d, d)) if h is None else h
        return kernels._mv_kernel({score: w}, anchor, p, hd)(x, y)[score]

    return kernel


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
        assert np.array_equal(a, b)


def test_vr_energy_score_reduces_to_vrcrps_in_1d():
    rng = np.random.default_rng(22)
    w = GaussCdf(0.2, 0.8)
    for _ in range(20):
        x = rng.normal(size=7)
        y = float(rng.normal())
        a = vr_energy_score(MvEnsemble(x[None, :]), np.array([y]), w).value
        b = vrcrps(Ensemble(x), y, w, 0.0).value
        assert np.array_equal(a, b)


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
    for kwargs in (
        dict(p=np.nan), dict(p=np.inf), dict(x0=[np.nan, 0.0, 0.0]), dict(h=np.full((2, 2), np.inf))
    ):
        with pytest.raises(ContractViolation, match="finite"):
            VariogramSpec(**kwargs)


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


@pytest.mark.parametrize(
    "n, m",
    [
        (20, 1),
        (kernels._BLOCK + 7, 5),
        (kernels._PAIR_BLOCK + 7, 5),
        (kernels._PAIR_BLOCK + 7, 6),
    ],
)
def test_stacked_kernels_match_per_case_functions(n, m):
    """The kernels behind the propriety Monte Carlo and the archive
    score a stack of cases as the public functions score each case, in
    every block of cases and across block boundaries."""
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
        "es": _kernel("es")(x, y),
        "vs": _kernel("vs", h=h)(x, y),
        "twes": _kernel("twes", chain.w, lower)(x, y),
        "twes_chained": _kernel("es")(tx, ty),
        "twvs": _kernel("vs", h=h)(tx, ty),
        "vres": _kernel("vres", w, lower)(x, y),
        "vrvs": _kernel("vrvs", w, lower, h=h)(x, y),
        "owes": _kernel("owes", w)(x, y),
    }
    per_case = {
        "es": lambda e, yi: energy_score(e, yi),
        "vs": lambda e, yi: variogram_score(e, yi),
        "twes": lambda e, yi: tw_energy_score(e, yi, chain),
        "twes_chained": lambda e, yi: tw_energy_score(e, yi, chain),
        "twvs": lambda e, yi: tw_variogram_score(e, yi, chain),
        "vres": lambda e, yi: vr_energy_score(e, yi, w, x0=lower),
        "vrvs": lambda e, yi: vr_variogram_score(e, yi, w, VariogramSpec(x0=lower)),
        "owes": lambda e, yi: ow_energy_score(e, yi, w),
    }
    if m > 1:
        stacked["es_fair"] = kernels._mv_kernel({"es": None}, None, None, None, fair=True)(x, y)["es"]
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


def test_constant_weight_gives_the_plain_scores():
    """With the unit weight of R^3 the re-scaled and outcome-weighted
    scores are the plain ones; a univariate weight does not fit."""
    rng = np.random.default_rng(51)
    w = BoxIndicator(np.full(3, -np.inf), np.full(3, np.inf))
    for _ in range(10):
        e, y = _rand_ens(rng), rng.normal(size=3)
        es, vs = energy_score(e, y).value, variogram_score(e, y).value
        assert vr_energy_score(e, y, w).value == pytest.approx(es, abs=1e-12)
        assert ow_energy_score(e, y, w).value == pytest.approx(es, abs=1e-12)
        assert vr_variogram_score(e, y, w).value == pytest.approx(vs, abs=1e-12)
    with pytest.raises(DimensionMismatch):
        vr_energy_score(e, y, Constant())


def test_mv_dimension_checks():
    e = MvEnsemble(np.zeros((3, 4)))
    with pytest.raises(DimensionMismatch):
        energy_score(e, np.zeros(2))
    with pytest.raises(DimensionMismatch):
        ow_energy_score(e, np.zeros(3), BoxIndicator(np.zeros(2), np.ones(2)))
    with pytest.raises(ContractViolation):
        energy_score(e, np.array([np.nan, 0.0, 0.0]))
    w = MvGaussCdf(np.zeros(3), np.ones(3))
    with pytest.raises(ContractViolation, match="^x0 must be finite"):
        vr_energy_score(e, np.zeros(3), w, x0=[np.inf, 0.0, 0.0])
    with pytest.raises(DimensionMismatch, match="^x0 has shape"):
        vr_energy_score(e, np.zeros(3), w, x0=np.zeros(2))


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
    tx, ty = chain.transform(x), chain.transform(y)
    cases = {
        "es": (lambda: _kernel("es")(x, y), lambda e, yi: energy_score(e, yi)),
        "vs": (lambda: _kernel("vs", h=h)(x, y), lambda e, yi: variogram_score(e, yi)),
        "twes": (lambda: _kernel("es")(tx, ty), lambda e, yi: tw_energy_score(e, yi, chain)),
        "twvs": (
            lambda: _kernel("vs", h=h)(tx, ty),
            lambda e, yi: tw_variogram_score(e, yi, chain),
        ),
        "owes": (lambda: _kernel("owes", w)(x, y), lambda e, yi: ow_energy_score(e, yi, w)),
        "owes_box": (
            lambda: _kernel("owes", box)(x, y),
            lambda e, yi: ow_energy_score(e, yi, box),
        ),
        "vres": (
            lambda: _kernel("vres", box, lower)(x, y),
            lambda e, yi: vr_energy_score(e, yi, box, x0=lower),
        ),
        "vrvs": (
            lambda: _kernel("vrvs", box, lower, h=h)(x, y),
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
    [(3, 1), (4, 2), (2, 7), (5, 8), (kernels._PAIR_BLOCK + 7, 5), (kernels._PAIR_BLOCK + 7, 6)],
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
        got, unit = kernels._pair_sum(x, [w, None])
        want = (w[:, :, None] * w[:, None, :] * dist).sum((1, 2))
        # A row's sum does not depend on the rows that share the call.
        assert np.array_equal(unit, kernels._pair_sum(x, [None])[0])
    else:
        got, want = kernels._pair_sum(x, [None])[0], dist.sum((1, 2))
    assert_allclose(got, want, rtol=1e-13, atol=0.0)
    same = np.broadcast_to(x[:, :1], x.shape)
    assert np.array_equal(kernels._pair_sum(same, [None])[0], np.zeros(n))


def _vr_variogram_tensor(x, y, w, p, h, x0):
    """The three terms whose sum is the vrVS of one case, members x (m, d),
    with the (m, m, d, d) tensor of increment differences between member
    pairs."""
    wx = kernels._member_weights(w, x)
    wy = float(kernels._member_weights(w, y))

    def incr(z):
        return np.abs(z[..., :, None] - z[..., None, :]) ** p

    gx, gy, g0 = incr(x), incr(y), incr(x0)
    m = x.shape[0]
    rho_y = np.einsum("ij,kij->k", h, (gx - gy) ** 2)
    rho_0 = np.einsum("ij,kij->k", h, (gx - g0) ** 2)
    rho_pairs = np.einsum("ij,klij->kl", h, (gx[:, None] - gx[None, :]) ** 2)
    pair = (wx[:, None] * wx[None, :] * rho_pairs).sum()
    term3 = ((rho_0 * wx).mean() - np.sum(h * (gy - g0) ** 2) * wy) * (wx.mean() - wy)
    return (rho_y * wx).mean() * wy, -pair / (2.0 * m * m), term3


def _moment_parts(x, w, p, h):
    """The size of the two parts whose difference is the moment form's
    vrVS pair term, for one case of members x (m, d):
    sum_kl w_k w_l sum_ij h_ij (c_kij^2 + c_lij^2) / (2 m^2), with c the
    increments centred on their member mean."""
    wx = kernels._member_weights(w, x)
    g = np.abs(x[:, :, None] - x[:, None, :]) ** p
    q = np.einsum("ij,kij->k", h, (g - g.mean(0)) ** 2)
    return wx.sum() * (wx * q).sum() / x.shape[0] ** 2


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
        got = _kernel("vrvs", w, x0, p, h)(x, y)
        for g, xi, yi in zip(got, x, y):
            terms = _vr_variogram_tensor(xi, yi, w, p, h, x0)
            # Both forms add terms that cancel, so their rounding scales
            # with the sizes of those terms, not with the value.
            atol = 1e-12 * (sum(map(abs, terms)) + _moment_parts(xi, w, p, h))
            assert_allclose(g, sum(terms), rtol=1e-12, atol=atol, err_msg=repr(w))


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
        _kernel("owes", w)(x, y)
    assert str(stacked.value) == str(per_case.value)
    assert "e-13" in str(stacked.value)
    assert _kernel("owes", w)(x[:2], y[:2])[0] == 0.0


# ---------------------------------------------------------------------------
# several scores in one kernel call
# ---------------------------------------------------------------------------

_ALL_MV = ("es", "twes", "vres", "owes", "vs", "twvs", "vrvs")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    n=st.sampled_from([1, 2, 5, kernels._BLOCK + 3, kernels._PAIR_BLOCK + 1]),
    m=st.integers(1, 9),
    d=st.integers(1, 4),
    binary=st.booleans(),
    chosen=st.lists(st.sampled_from(_ALL_MV), min_size=1, unique=True),
    seed=st.integers(0, 2**32 - 1),
)
def test_shared_kernel_leaves_each_score_unchanged(n, m, d, binary, chosen, seed):
    """Each score's values from one call with several scores, in any
    order, are bit for bit those of a call with that score alone, for
    binary and continuous weights, odd and even member counts, and stacks
    that span several blocks."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, m, d))
    y = 1.5 * rng.standard_normal((n, d))
    anchor = np.full(d, -0.3)
    box = BoxIndicator(anchor, np.full(d, np.inf))
    # A binary re-scaling weight is the box object of the tw scores itself.
    w = box if binary else MvGaussCdf(anchor, np.ones(d))
    h = rng.uniform(0.5, 1.5, (d, d))
    h = h + h.T
    weights = {s: box if s.startswith("tw") else w for s in chosen}
    together = _values_or_error(lambda: kernels._mv_kernel(weights, anchor, 0.5, h)(x, y))
    alone = {s: _values_or_error(lambda: _kernel(s, weights[s], anchor, 0.5, h)(x, y)) for s in chosen}
    errors = [v for v in alone.values() if isinstance(v, str)]
    if errors:
        # Only owes raises, and the call with it raises its message.
        assert together == errors[0]
        return
    assert list(together) == chosen
    for s in chosen:
        assert np.array_equal(together[s], alone[s]), s


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_mv_stack(), st.floats(-1.0, 1.0))
def test_kernel_twes_equals_the_collapsed_energy_score(stack, shift):
    """The kernel's twes, from binary member weights, is the energy score
    of the chained points, as ``tw_energy_score`` gives it; exactly 0
    where nothing has weight and exactly es where everything has."""
    x, y = stack
    d = x.shape[-1]
    anchor = y.mean(0) + shift * x.std()
    box = BoxIndicator(anchor, np.full(d, np.inf))
    got = _kernel("twes", box, anchor)(x, y)
    chain = CollapseOutside(box, anchor)
    per_case = [tw_energy_score(MvEnsemble(xi.T), yi, chain).value for xi, yi in zip(x, y)]
    assert np.array_equal(np.maximum(got, 0.0), per_case)
    tx, ty = chain.transform(x), chain.transform(y)
    chained = [energy_score(MvEnsemble(xi.T), yi).value for xi, yi in zip(tx, ty)]
    assert_allclose(per_case, chained, rtol=1e-12, atol=0.0)
    below, above = np.min([x.min((0, 1)), y.min(0)], 0), np.max([x.max((0, 1)), y.max(0)], 0)
    outside = BoxIndicator(above + 1.0, np.full(d, np.inf))
    assert np.array_equal(_kernel("twes", outside, above + 1.0)(x, y), np.zeros(len(x)))
    inside = BoxIndicator(below, np.full(d, np.inf))
    assert np.array_equal(_kernel("twes", inside, below)(x, y), _kernel("es")(x, y))


def test_mv_ensemble_is_defined_once_in_forecasts():
    # mvscores and the package export the class that forecasts defines.
    assert mvscores.MvEnsemble is forecasts.MvEnsemble is MvEnsemble
    assert "MvEnsemble" not in forecasts.__all__
