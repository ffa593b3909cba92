import dataclasses
import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import integrate, stats

from wverif import (
    CensorAbove,
    ContractViolation,
    DimensionMismatch,
    Ensemble,
    HeatLevelIndicator,
    Identity,
    IndicatorAbove,
    Normal,
    WeightedMassZero,
    crps_ensemble,
    twcrps,
)
from wverif.uniscores import weighted_cdf
from wverif.weights import (
    BoxIndicator,
    CensorBelow,
    CollapseOutside,
    Constant,
    GaussCdf,
    GaussPdf,
    GaussPdfRatioComplementChain,
    IndicatorBelow,
    MvGaussCdf,
    MvGaussPdf,
    OneMinusGaussCdf,
    OneMinusGaussPdfRatio,
    OneMinusMvGaussCdf,
    OneMinusMvGaussPdfRatio,
    canonical_chaining,
    classify_heat_level,
    heat_levels,
)
from wverif import kernels
from wverif import weights as weights_module


def test_constant_and_indicators():
    assert Constant()(5.0) == 1.0
    w = IndicatorAbove(25.0)
    assert w(24.0) == 0.0
    assert w(25.0) == 0.0
    assert w(26.0) == 1.0
    b = IndicatorBelow(25.0)
    assert b(24.0) == 1.0
    assert b(25.0) == 0.0
    assert b(26.0) == 0.0


def test_gauss_weight_values():
    assert OneMinusGaussPdfRatio(0.0, 1.0)(0.0) == pytest.approx(0.0)
    assert GaussCdf(0.0, 1.0)(0.0) == pytest.approx(0.5)
    assert OneMinusGaussCdf(0.0, 1.0)(0.0) == pytest.approx(0.5)
    assert GaussPdf(0.0, 1.0)(0.0) == pytest.approx(stats.norm.pdf(0.0))
    far = OneMinusGaussPdfRatio(0.0, 1.0)(50.0)
    assert far == pytest.approx(1.0)


def test_weights_are_nonnegative_and_ratio_bounded():
    rng = np.random.default_rng(0)
    z = rng.normal(scale=4.0, size=500)
    for w in (
        GaussPdf(0.3, 0.9),
        OneMinusGaussPdfRatio(0.3, 0.9),
        GaussCdf(0.3, 0.9),
        OneMinusGaussCdf(0.3, 0.9),
    ):
        vals = w(z)
        assert np.all(vals >= 0.0)
    ratio = OneMinusGaussPdfRatio(0.3, 0.9)(z)
    assert np.all(ratio <= 1.0)


def test_sigma_must_be_positive():
    with pytest.raises(ContractViolation):
        GaussPdf(0.0, 0.0)
    with pytest.raises(ContractViolation):
        MvGaussCdf(np.zeros(2), np.array([1.0, -1.0]))


def test_chaining_integrates_its_weight():
    """v(b) - v(a) must equal the integral of w between a and b."""
    pairs = [
        (Constant(), Identity()),
        (IndicatorAbove(0.4), CensorAbove(0.4)),
        (IndicatorBelow(0.4), CensorBelow(0.4)),
    ]
    for w in (
        GaussPdf(0.2, 1.1),
        OneMinusGaussPdfRatio(0.2, 1.1),
        GaussCdf(0.2, 1.1),
        OneMinusGaussCdf(0.2, 1.1),
    ):
        pairs.append((w, canonical_chaining(w)))
    rng = np.random.default_rng(42)
    for w, v in pairs:
        assert isinstance(canonical_chaining(w), type(v))
        for _ in range(5):
            a, b = np.sort(rng.uniform(-3.0, 3.0, 2))
            num, _ = integrate.quad(w, a, b, points=list(w.breakpoints()), limit=200)
            assert abs((v(b) - v(a)) - num) < 1e-8


def test_gauss_pdf_ratio_complement_chain():
    """The two-sided tail chaining differentiates to its weight, and an
    ensemble's twCRPS under it is the CRPS of the transformed members,
    which is also the integral of (F - 1{y <= z})^2 against the weight."""
    v = GaussPdfRatioComplementChain(0.5, 1.3)
    w = v.weight()
    assert w == OneMinusGaussPdfRatio(0.5, 1.3)
    z = np.linspace(-5.0, 6.0, 221)
    h = 1e-5
    assert_allclose((v(z + h) - v(z - h)) / (2.0 * h), w(z), rtol=0.0, atol=1e-8)

    x = np.random.default_rng(8).normal(0.5, 2.0, 15)
    for y in (-2.0, 0.5, 3.1):
        got = twcrps(Ensemble(x), y, v).value
        assert got == crps_ensemble(Ensemble(v(x)), v(y)).value
        # The integrand is (F - 1{y <= z})^2 w(z) with F and the indicator
        # constant between consecutive knots, and zero outside them.
        knots = np.sort(np.append(x, y))
        integral = 0.0
        for a, b in zip(knots[:-1], knots[1:]):
            step = np.mean(x <= a) - float(y <= a)
            integral += step**2 * integrate.quad(w, a, b, epsabs=1e-13)[0]
        assert got == pytest.approx(integral, abs=1e-9)


def test_univariate_chainings_nondecreasing():
    z = np.linspace(-6.0, 6.0, 2001)
    for w in (
        Constant(),
        IndicatorAbove(0.0),
        IndicatorBelow(0.0),
        GaussPdf(0.0, 1.0),
        OneMinusGaussPdfRatio(0.0, 1.0),
        GaussCdf(0.0, 1.0),
        OneMinusGaussCdf(0.0, 1.0),
    ):
        v = canonical_chaining(w)
        assert np.all(np.diff(v(z)) >= -1e-12)


def test_censor_above_exact():
    v = CensorAbove(1.0)
    assert v(0.0) == 1.0
    assert v(1.0) == 1.0
    assert v(2.5) == 2.5
    assert v(-3.0) == 1.0


def test_mv_gauss_weights():
    mu = np.array([1.0, -1.0])
    sig = np.array([1.0, 2.0])
    w = MvGaussCdf(mu, sig)
    assert w.dim == 2
    assert w(mu) == pytest.approx(0.25)
    wp = MvGaussPdf(mu, sig)
    assert wp(mu) == pytest.approx(stats.norm.pdf(0.0) ** 2 / (1.0 * 2.0))
    assert OneMinusMvGaussPdfRatio(mu, sig)(mu) == pytest.approx(0.0)
    assert OneMinusMvGaussCdf(mu, sig)(mu) == pytest.approx(0.75)


def test_mv_weight_dimension_checks():
    w = MvGaussCdf(np.zeros(3), np.ones(3))
    with pytest.raises(DimensionMismatch):
        w(np.zeros(2))


def _weights_at(d: int) -> list:
    """One instance of every weight class that weights points of R^d."""
    mu, sd = np.linspace(-1.0, 1.0, d), np.full(d, 1.5)
    if d == 1:
        return [
            Constant(),
            IndicatorAbove(0.2),
            IndicatorBelow(0.2),
            GaussPdf(0.1, 1.5),
            OneMinusGaussPdfRatio(0.1, 1.5),
            GaussCdf(0.1, 1.5),
            OneMinusGaussCdf(0.1, 1.5),
        ]
    out = [
        MvGaussPdf(mu, sd),
        OneMinusMvGaussPdfRatio(mu, sd),
        MvGaussCdf(mu, sd),
        OneMinusMvGaussCdf(mu, sd),
        BoxIndicator(mu, np.full(d, np.inf)),
    ]
    return out + [HeatLevelIndicator(2)] if d == 3 else out


def test_every_weight_returns_one_value_per_point():
    """On (n, d) points every weight of dimension d > 1 returns shape (n,);
    a univariate weight weighs each number of an array of any shape.
    Either way the kernels get one weight per member.  A single point, a
    float or a (d,) vector, gets a Python float from every weight and
    every univariate chaining, and a wrong last axis is refused."""
    classes = {
        cls
        for cls in map(weights_module.__dict__.get, weights_module.__all__)
        if isinstance(cls, type) and issubclass(cls, weights_module.WeightFunction)
    }
    seen = set()
    rng = np.random.default_rng(12)
    for d in (1, 2, 3):
        for w in _weights_at(d):
            seen.add(type(w))
            assert w.dim == d
            pts = rng.normal(25.0 if isinstance(w, HeatLevelIndicator) else 0.0, 2.0, (6, d))
            if d == 1:
                assert np.shape(w(pts[:, 0])) == (6,)
                assert np.shape(w(pts)) == (6, 1)
                assert type(w(pts[0, 0])) is float, w
                assert type(canonical_chaining(w)(pts[0, 0])) is float, w
            else:
                assert np.shape(w(pts)) == (6,), w
                assert type(w(pts[0])) is float, w
                with pytest.raises(DimensionMismatch):
                    w(np.zeros((6, d + 1)))
            members = pts.reshape(2, 3, d)
            assert kernels._member_weights(w, members).shape == (2, 3), w
    assert seen == classes - {weights_module.WeightFunction}
    # Constant is univariate: it weighs each number, and the kernels
    # refuse it on points of R^3.
    assert Constant()(np.zeros((4, 3))).shape == (4, 3)
    with pytest.raises(DimensionMismatch):
        kernels._member_weights(Constant(), np.zeros((2, 4, 3)))


def test_box_indicator():
    w = BoxIndicator(np.array([0.0, 0.0]), np.array([1.0, np.inf]))
    assert w(np.array([0.5, 100.0])) == 1.0
    assert w(np.array([0.0, 0.0])) == 1.0
    assert w(np.array([1.5, 0.5])) == 0.0
    assert w.is_binary
    batch = w(np.array([[0.5, 0.5], [2.0, 0.5]]))
    assert_allclose(batch, [1.0, 0.0])
    with pytest.raises(ContractViolation):
        BoxIndicator(np.array([1.0]), np.array([0.0]))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_box_indicator_equals_np_all_at_bounds_infinite_limits_and_nan(d):
    rng = np.random.default_rng(d)
    lower = rng.choice([-1.0, 0.0, -np.inf], d)
    upper = np.maximum(lower, rng.choice([0.0, 1.0, np.inf], d))
    w = BoxIndicator(lower, upper)
    # Points on the bounds, at and beyond ±inf, inside, outside and NaN.
    grid = np.stack([lower, upper, lower - 1.0, upper + 1.0, np.full(d, np.inf),
                     np.full(d, -np.inf), np.full(d, np.nan), np.clip(0.5, lower, upper)])
    z = grid[rng.integers(0, grid.shape[0], (40, 7, d)), np.arange(d)]
    want = np.all((z >= lower) & (z <= upper), axis=-1).astype(float)
    assert np.array_equal(w(z), want)
    assert all(w(point) == want[0, i] for i, point in enumerate(z[0]))


def test_collapse_outside_transform():
    w = BoxIndicator(np.array([0.0, 0.0]), np.array([2.0, 2.0]))
    z0 = np.array([0.0, 0.0])
    v = CollapseOutside(w, z0)
    pts = np.array([[1.0, 1.0], [3.0, 1.0]])
    out = v(pts)
    assert_allclose(out[0], [1.0, 1.0])
    assert_allclose(out[1], z0)
    assert canonical_chaining(w, z0=z0).z0 is not None


def test_collapse_outside_rejects_bad_inputs():
    box = BoxIndicator(np.zeros(2), np.ones(2))
    with pytest.raises(ContractViolation):
        CollapseOutside(MvGaussCdf(np.zeros(2), np.ones(2)), np.zeros(2))
    with pytest.raises(DimensionMismatch):
        CollapseOutside(box, np.zeros(3))
    with pytest.raises(ContractViolation):
        CollapseOutside(IndicatorAbove(0.0), np.zeros(1))
    with pytest.raises(ContractViolation):
        canonical_chaining(BoxIndicator(np.zeros(2), np.ones(2)))


def test_heat_levels_exhaustive_and_disjoint():
    """Every grid point lands in exactly one level, and the level agrees
    with the defining predicates evaluated directly."""
    warm, hot = 25.0, 27.0
    axis = np.arange(20.0, 30.01, 0.5)
    pts = np.array(list(itertools.product(axis, repeat=3)))
    levels = heat_levels(pts)
    assert levels.shape == (pts.shape[0],)
    assert set(np.unique(levels)) <= {1, 2, 3, 4}

    n_warm = (pts >= warm).sum(axis=1)
    expect = np.where(
        (pts >= hot).all(axis=1),
        4,
        np.where(
            (pts >= warm).all(axis=1),
            3,
            np.where(n_warm >= 1, 2, 1),
        ),
    )
    assert_allclose(levels, expect)

    member = np.zeros(pts.shape[0])
    for lvl in (1, 2, 3, 4):
        member += HeatLevelIndicator(lvl)(pts)
    assert_allclose(member, np.ones(pts.shape[0]))


def test_heat_level_examples():
    rows = [
        ((24.0, 24.0, 24.0), 1),
        ((24.9, 24.9, 24.9), 1),
        ((26.0, 24.0, 24.0), 2),
        ((26.0, 26.0, 24.0), 2),
        ((25.0, 24.5, 24.5), 2),
        ((26.0, 26.0, 26.0), 3),
        ((25.0, 25.0, 25.0), 3),
        ((28.0, 27.0, 26.9), 3),
        ((27.0, 27.0, 27.0), 4),
        ((28.0, 29.0, 30.0), 4),
    ]
    for temps, want in rows:
        got = heat_levels(np.array([temps]))[0]
        assert got == want, (temps, got, want)
        assert HeatLevelIndicator(want)(np.array(temps)) == 1.0


def test_heat_level_indicator_validation():
    with pytest.raises(ContractViolation):
        HeatLevelIndicator(0)
    with pytest.raises(ContractViolation):
        HeatLevelIndicator(5)
    with pytest.raises(DimensionMismatch):
        HeatLevelIndicator(2)(np.zeros(2))


@pytest.mark.parametrize("temps", [np.full(3, np.nan), np.array([np.nan, 30.0, 30.0])],
                         ids=["all-nan", "one-nan"])
def test_a_nan_day_has_no_heat_level(temps):
    # heat_levels refuses it; the indicators weigh it 0, as a box does.
    with pytest.raises(ContractViolation, match="NaN day"):
        heat_levels(temps)
    with pytest.raises(ContractViolation, match="NaN day"):
        classify_heat_level(temps)
    assert [HeatLevelIndicator(level)(temps) for level in (1, 2, 3, 4)] == [0.0] * 4
    assert BoxIndicator(np.full(3, -np.inf), np.full(3, np.inf))(temps) == 0.0


def test_weighted_cdf_truncation():
    f = Normal(0.0, 1.0)
    w = IndicatorAbove(0.0)
    for x in (0.0, 0.5, 1.0, 2.0):
        want = (stats.norm.cdf(x) - 0.5) / 0.5
        assert weighted_cdf(f, w, x) == pytest.approx(want, abs=1e-12)
    assert weighted_cdf(f, w, -1.0) == 0.0


def test_weighted_cdf_keeps_relative_accuracy_in_the_far_right_tail():
    # (Q(7) - Q(7.1)) / Q(7) for the standard normal tail Q, to 40 digits;
    # forming the tail mass as 1 - F(7) loses about 2e-5 of it.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40

    def q(x):
        return mpmath.erfc(mpmath.mpf(x) / mpmath.sqrt(2)) / 2

    want = float((q(7.0) - q(7.1)) / q(7.0))
    got = weighted_cdf(Normal(0.0, 1.0), IndicatorAbove(7.0), 7.1)
    assert got == pytest.approx(want, rel=1e-12)


def test_weighted_cdf_generic_matches_quadrature():
    f = Normal(0.3, 1.2)
    w = GaussCdf(0.5, 0.8)
    denom, _ = integrate.quad(lambda z: w(z) * f.pdf(z), -12.0, 12.0)
    for x in (-0.5, 0.4, 1.3):
        num, _ = integrate.quad(lambda z: w(z) * f.pdf(z), -12.0, x)
        assert weighted_cdf(f, w, x) == pytest.approx(num / denom, abs=1e-8)


def test_weighted_cdf_monotone():
    f = Normal(0.0, 1.0)
    w = OneMinusGaussCdf(0.0, 1.0)
    xs = np.linspace(-4.0, 4.0, 41)
    vals = [weighted_cdf(f, w, x) for x in xs]
    assert np.all(np.diff(vals) >= -1e-10)
    assert vals[-1] == pytest.approx(1.0, abs=1e-6)


def test_weighted_cdf_mass_floor():
    f = Normal(0.0, 1.0)
    with pytest.raises(WeightedMassZero):
        weighted_cdf(f, IndicatorAbove(100.0), 101.0)
    with pytest.raises(WeightedMassZero):
        weighted_cdf(f, IndicatorBelow(-100.0), -101.0)


def test_weighted_cdf_refuses_nan_and_non_weights():
    f = Normal(0.0, 1.0)
    for w in (Constant(), IndicatorAbove(0.0), IndicatorBelow(0.0), GaussCdf(0.5, 0.8)):
        with pytest.raises(ContractViolation, match="x must not be NaN"):
            weighted_cdf(f, w, np.nan)
        # +-inf keeps its documented answer.
        assert weighted_cdf(f, w, -np.inf) == 0.0
        assert weighted_cdf(f, w, np.inf) == 1.0
    for w in (None, 0.5, lambda z: 1.0):
        with pytest.raises(ContractViolation, match="univariate weight function"):
            weighted_cdf(f, w, 0.3)


# ---------------------------------------------------------------------------
# Gaussian weights and chainings against scipy.stats.norm, bit for bit
# ---------------------------------------------------------------------------


def _norm_oracles(mu, s):
    """Each Gaussian weight and chaining as it was written on
    ``scipy.stats.norm``; mu and s are scalars or the diagonal's arrays."""
    pdf = lambda z: stats.norm.pdf(z, mu, s)  # noqa: E731
    cdf = lambda z: stats.norm.cdf(z, mu, s)  # noqa: E731
    peak = stats.norm.pdf(mu, mu, s)
    # The antiderivative with its limit 0 at -inf, where the formula
    # gives -inf * 0.
    antideriv = lambda z: np.where(  # noqa: E731
        z == -np.inf, 0.0, (z - mu) * cdf(z) + s**2 * pdf(z)
    )
    return {
        "GaussPdf": pdf,
        "OneMinusGaussPdfRatio": lambda z: np.clip(1.0 - pdf(z) / peak, 0.0, 1.0),
        "GaussCdf": cdf,
        "OneMinusGaussCdf": lambda z: stats.norm.sf(z, mu, s),
        "GaussCdfChain": antideriv,
        # Its limit mu at inf, where the difference is inf - inf.
        "GaussCdfComplementChain": lambda z: np.where(z == np.inf, mu, z - antideriv(z)),
        "GaussPdfChain": cdf,
        "GaussPdfRatioComplementChain": lambda z: z - cdf(z) / peak,
        "MvGaussPdf": lambda z: np.prod(pdf(z), axis=-1),
        "OneMinusMvGaussPdfRatio": lambda z: np.clip(
            1.0 - np.prod(pdf(z), axis=-1) / np.prod(peak), 0.0, 1.0
        ),
        "MvGaussCdf": lambda z: np.prod(cdf(z), axis=-1),
        "OneMinusMvGaussCdf": lambda z: 1.0 - np.prod(cdf(z), axis=-1),
    }


_UNI_GAUSS = (
    "GaussPdf", "OneMinusGaussPdfRatio", "GaussCdf", "OneMinusGaussCdf", "GaussCdfChain",
    "GaussCdfComplementChain", "GaussPdfChain", "GaussPdfRatioComplementChain",
)
_MV_GAUSS = ("MvGaussPdf", "OneMinusMvGaussPdfRatio", "MvGaussCdf", "OneMinusMvGaussCdf")


def _evaluate(obj, z):
    return obj.transform(z) if isinstance(obj, weights_module.ChainingFunction) else obj(z)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")  # inf - inf
@pytest.mark.parametrize("name", _UNI_GAUSS)
@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (24.7, 3.3), (-3.0, 0.05), (2, 3)])
def test_gauss_weights_equal_scipy_stats_norm_bit_for_bit(name, mu, sigma):
    obj = getattr(weights_module, name)(mu, sigma)
    oracle = _norm_oracles(mu, sigma)[name]
    rng = np.random.default_rng(31)
    z = np.concatenate([
        mu + sigma * rng.normal(0.0, 3.0, 200_000),
        mu + rng.uniform(-60.0, 60.0, 2_000),
        [np.inf, -np.inf, mu, mu + 40.0 * sigma, mu - 40.0 * sigma],
    ])
    assert np.array_equal(_evaluate(obj, z), oracle(z), equal_nan=True)
    # A scalar keeps its return type: a Python float.
    for z0 in (float(mu), mu + 0.37 * sigma, -np.inf, np.inf):
        got = _evaluate(obj, z0)
        assert type(got) is float
        assert np.array_equal(got, float(oracle(np.asarray(z0, dtype=float))), equal_nan=True)
    block = z[:200_000].reshape(400, 500)
    assert np.array_equal(_evaluate(obj, block), oracle(block), equal_nan=True)


@pytest.mark.parametrize("mu, sigma", [(0.0, 1.0), (24.7, 3.3), (-3.0, 0.05)])
def test_gauss_cdf_chains_take_their_limits_at_infinity(mu, sigma):
    chain = weights_module.GaussCdfChain(mu, sigma)
    complement = weights_module.GaussCdfComplementChain(mu, sigma)
    z = np.array([-np.inf, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert chain.transform(-np.inf) == 0.0
        assert chain.transform(np.inf) == np.inf
        assert complement.transform(np.inf) == mu
        assert complement.transform(-np.inf) == -np.inf
        assert np.array_equal(chain.transform(z), [0.0, np.inf])
        assert np.array_equal(complement.transform(z), [-np.inf, mu])
    # Far out the finite values approach the limits.
    assert chain.transform(mu - 40.0 * sigma) == pytest.approx(0.0, abs=1e-300)
    assert complement.transform(mu + 40.0 * sigma) == pytest.approx(mu, abs=1e-10)


@pytest.mark.parametrize("name", _MV_GAUSS)
def test_mv_gauss_weights_equal_scipy_stats_norm_bit_for_bit(name):
    mu, sd = np.array([24.0, -1.5, 0.0]), np.array([3.0, 0.2, 1.0])
    obj = getattr(weights_module, name)(mu, sd)
    oracle = _norm_oracles(mu, sd)[name]
    rng = np.random.default_rng(32)
    z = mu + sd * rng.normal(0.0, 3.0, (60_000, 3))
    z[:3] = mu
    # One component at +-inf, the others at the centre.
    for i, (c, v) in enumerate(itertools.product(range(3), (np.inf, -np.inf))):
        z[3 + i] = mu
        z[3 + i, c] = v
    assert np.array_equal(obj(z), oracle(z))
    assert np.array_equal(obj(z.reshape(300, 200, 3)), oracle(z.reshape(300, 200, 3)))
    for point in (mu, z[4], z[10]):
        got = obj(point)
        assert type(got) is float and got == float(oracle(point))


# Drawn weights of every univariate family: the fields of each class in
# weights._CHAINS are a threshold t or a centre mu and sd sigma.
_FIELDS = {
    "t": st.floats(-100.0, 100.0),
    "mu": st.floats(-100.0, 100.0),
    "sigma": st.floats(1e-3, 100.0),
}
_UNIVARIATE_WEIGHTS = st.one_of(
    *(
        st.builds(cls, **{f.name: _FIELDS[f.name] for f in dataclasses.fields(cls)})
        for cls in weights_module._CHAINS
    )
)
_POINTS = st.floats(-1e4, 1e4) | st.sampled_from([-np.inf, np.inf])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mu=_FIELDS["mu"], sigma=_FIELDS["sigma"], z=st.lists(_POINTS, min_size=1, max_size=20))
def test_gauss_cdf_and_its_complement_sum_to_one(mu, sigma, z):
    z = np.array(z)
    total = GaussCdf(mu, sigma)(z) + OneMinusGaussCdf(mu, sigma)(z)
    assert np.all(np.abs(total - 1.0) <= 1e-12)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(w=_UNIVARIATE_WEIGHTS, z=st.lists(_POINTS, min_size=2, max_size=20))
def test_every_univariate_chaining_is_nondecreasing(w, z):
    """v(z) never falls as z grows, up to roundoff relative to the largest
    finite |v|; it is never NaN, the infinite ends included."""
    v = np.asarray(canonical_chaining(w)(np.sort(z)), dtype=float)
    assert not np.isnan(v).any()
    tol = 1e-12 * max(1.0, np.abs(v[np.isfinite(v)]).max(initial=0.0))
    assert np.all(v[1:] >= v[:-1] - tol)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(w=_UNIVARIATE_WEIGHTS)
def test_canonical_chaining_gives_back_its_weight(w):
    chain = canonical_chaining(w)
    assert type(chain) is weights_module._CHAINS[type(w)]
    assert chain.weight() == w


# ---------------------------------------------------------------------------
# NaN parameters, and the remaining weight invariants as properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("make", [
    lambda: IndicatorAbove(np.nan),
    lambda: IndicatorBelow(np.nan),
    lambda: CensorAbove(np.nan),
    lambda: CensorBelow(np.nan),
    lambda: GaussPdf(0.0, np.nan),
    lambda: GaussCdf(np.nan, 1.0),
    lambda: weights_module.GaussPdfChain(np.nan, 1.0),
    lambda: MvGaussCdf(np.array([0.0, np.nan]), np.ones(2)),
    lambda: MvGaussPdf(np.zeros(2), np.array([1.0, np.nan])),
    lambda: BoxIndicator(np.array([0.0, np.nan]), np.ones(2)),
    lambda: BoxIndicator(np.zeros(2), np.array([np.nan, 1.0])),
    lambda: HeatLevelIndicator(2, warm=np.nan),
    lambda: CollapseOutside(BoxIndicator(np.zeros(2), np.ones(2)), np.array([np.nan, 0.0])),
], ids=[
    "IndicatorAbove", "IndicatorBelow", "CensorAbove", "CensorBelow", "GaussPdf-sigma", "GaussCdf-mu",
    "GaussPdfChain-mu", "MvGaussCdf-mu", "MvGaussPdf-sigma", "BoxIndicator-lower", "BoxIndicator-upper",
    "HeatLevelIndicator-warm", "CollapseOutside-z0",
])
def test_weights_and_chainings_refuse_nan_parameters(make):
    # A NaN threshold once scored every case 0 (vrcrps, owcrps) or failed
    # as a numerical error (twcrps); a NaN sigma was taken as positive.
    with pytest.raises(ContractViolation):
        make()


def test_infinite_parameters_stay_allowed():
    assert IndicatorAbove(-np.inf)(np.array([-1e300, 0.0])).tolist() == [1.0, 1.0]
    assert CensorBelow(np.inf)(3.0) == 3.0
    assert BoxIndicator(np.full(2, -np.inf), np.full(2, np.inf))(np.zeros(2)) == 1.0


def _mp_weight(w, mp):
    """The weight ``w`` in mpmath arithmetic, written from its docstring."""
    kind = type(w).__name__
    if kind == "Constant":
        return lambda z: mp.mpf(1)
    if kind in ("IndicatorAbove", "IndicatorBelow"):
        above = kind == "IndicatorAbove"
        return lambda z: mp.mpf(int(z > w.t if above else z < w.t))
    mu, s = mp.mpf(w.mu), mp.mpf(w.sigma)
    return {
        "GaussPdf": lambda z: mp.npdf(z, mu, s),
        "GaussCdf": lambda z: mp.ncdf(z, mu, s),
        "OneMinusGaussCdf": lambda z: mp.ncdf(-z, -mu, s),
        "OneMinusGaussPdfRatio": lambda z: -mp.expm1(-((z - mu) / s) ** 2 / 2),
    }[kind]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(w=_UNIVARIATE_WEIGHTS, ends=st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=2))
def test_every_univariate_chaining_integrates_its_weight_against_mpmath(w, ends):
    """v(b) - v(a) is the integral of w over [a, b], to roundoff relative to
    the largest of 1, |a|, |b|, |v(a)| and |v(b)|; the integral is taken in
    40-digit mpmath, split at the weight's breakpoints and around its centre."""
    mpmath = pytest.importorskip("mpmath")
    a, b = sorted(ends)
    v = canonical_chaining(w)
    va, vb = v(a), v(b)
    knots = [*w.breakpoints()]
    if hasattr(w, "mu"):
        knots += [w.mu + k * w.sigma for k in (-40, -10, -3, 0, 3, 10, 40)]
    with mpmath.workdps(40):
        f = _mp_weight(w, mpmath.mp)
        points = [a, *sorted(k for k in knots if a < k < b), b]
        want = mpmath.quad(f, [mpmath.mpf(p) for p in points]) if b > a else mpmath.mpf(0)
    scale = max(1.0, abs(a), abs(b), abs(va), abs(vb))
    assert abs((vb - va) - float(want)) <= 1e-14 * scale, (w, a, b, vb - va, want)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(t=_FIELDS["t"], z=st.lists(_POINTS | _FIELDS["t"], min_size=1, max_size=20))
def test_indicators_above_and_below_sum_to_one_away_from_their_threshold(t, z):
    z = np.array(z + [t])
    total = IndicatorAbove(t)(z) + IndicatorBelow(t)(z)
    assert np.all(total[z != t] == 1.0) and np.all(total[z == t] == 0.0)


@st.composite
def _heat_thresholds(draw):
    warm = draw(st.floats(-100.0, 100.0))
    return warm, warm + draw(st.floats(1e-6, 50.0))


def _heat_points(draw, warm, hot, n):
    """Points of R^3 near the thresholds, on them, and anywhere."""
    near = st.floats(warm - 5.0, hot + 5.0) | st.sampled_from([warm, hot])
    coords = draw(st.lists(near | st.floats(allow_nan=False, allow_infinity=False),
                           min_size=3 * n, max_size=3 * n))
    return np.array(coords).reshape(n, 3)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_exactly_one_heat_level_holds_at_every_point(data):
    warm, hot = data.draw(_heat_thresholds())
    z = _heat_points(data.draw, warm, hot, data.draw(st.integers(1, 12)))
    held = np.array([HeatLevelIndicator(level, warm, hot)(z) for level in (1, 2, 3, 4)])
    assert np.array_equal(held.sum(axis=0), np.ones(len(z)))
    assert np.array_equal(np.argmax(held, axis=0) + 1, heat_levels(z, warm, hot))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_box_and_heat_level_indicators_return_only_zero_or_one(data):
    d = data.draw(st.integers(1, 4))
    bounds = st.floats(allow_nan=False)
    pairs = [sorted(data.draw(st.tuples(bounds, bounds))) for _ in range(d)]
    box = BoxIndicator(*map(np.array, zip(*pairs)))
    # Any point at all: NaN, infinite and huge coordinates included.
    anywhere = st.lists(st.floats(), min_size=d, max_size=d)
    z = np.array(data.draw(st.lists(anywhere, min_size=1, max_size=10)))
    assert set(np.unique(box(z)).tolist()) <= {0.0, 1.0}
    warm, hot = data.draw(_heat_thresholds())
    level = HeatLevelIndicator(data.draw(st.integers(1, 4)), warm, hot)
    anywhere = st.lists(st.floats(), min_size=3, max_size=3)
    z = np.array(data.draw(st.lists(anywhere, min_size=1, max_size=10)))
    assert set(np.unique(level(z)).tolist()) <= {0.0, 1.0}
