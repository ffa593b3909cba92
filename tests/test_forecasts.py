from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import special, stats

from wverif import ContractViolation, Ensemble, Normal, forecasts
from wverif.forecasts import IndependentProduct, Logistic, StudentT


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_special_accessor_equals_scipy_special_bit_for_bit():
    """forecasts' scipy.special names import scipy.special on their first
    call and pass their arguments through: every value, the sign of every
    zero and every NaN included, keeps scipy's bits."""
    u = np.random.default_rng(5).normal(0.0, 4.0, 200_000)
    u = np.concatenate([u, [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf, np.nan]])
    q = np.concatenate([special.ndtr(u), [0.0, 1.0, -0.0, 0.5, 1e-300, 1.5, -0.5]])
    pairs = [
        (forecasts.ndtr(u), special.ndtr(u)),
        (forecasts.ndtr(-u), special.ndtr(-u)),
        (forecasts.ndtri(q), special.ndtri(q)),
        (forecasts.expit(-u), special.expit(-u)),
        (forecasts.stdtr(5, -u), special.stdtr(5, -u)),
        (forecasts.logit(q), special.logit(q)),
        (forecasts.log1p(np.exp(-np.abs(u))), special.log1p(np.exp(-np.abs(u)))),
        (forecasts.stdtrit(2.5, q), special.stdtrit(2.5, q)),
        (forecasts.poch(np.abs(u), 0.5), special.poch(np.abs(u), 0.5)),
    ]
    for got, want in pairs:
        assert np.array_equal(_bits(got), _bits(want))
    for x in (0.0, -0.0, 0.3, np.inf, np.nan):
        assert _bits(forecasts.ndtr(x)) == _bits(special.ndtr(x))
    for q0 in (0.0, 1.0):
        assert _bits(forecasts.ndtri(q0)) == _bits(special.ndtri(q0))


def test_ensemble_basic():
    e = Ensemble(np.array([0.0, 1.0, 2.0]))
    assert e.size == 3
    assert e.cdf(-1.0) == 0.0
    assert e.cdf(0.0) == pytest.approx(1.0 / 3.0)
    assert e.cdf(1.5) == pytest.approx(2.0 / 3.0)
    assert e.cdf(2.0) == 1.0


def test_ensemble_cdf_vectorised():
    e = Ensemble(np.array([1.0, 2.0, 2.0, 4.0]))
    out = e.cdf(np.array([0.5, 2.0, 3.0, 5.0]))
    assert_allclose(out, [0.0, 0.75, 0.75, 1.0])


def test_ensemble_cdf_is_nan_at_nan():
    """NaN is no point of the line: the empirical cdf gives NaN there, as
    the parametric cdfs do, not the 1.0 of a value past every member."""
    e = Ensemble(np.array([1.0, 2.0]))
    assert np.isnan(e.cdf(np.nan)) and np.isnan(Normal(0.0, 1.0).cdf(np.nan))
    assert_array_equal(e.cdf(np.array([np.nan, 1.5, np.inf])), [np.nan, 0.5, 1.0])


def test_ensemble_rejects_bad_members():
    with pytest.raises(ContractViolation):
        Ensemble(np.array([1.0, np.nan]))
    with pytest.raises(ContractViolation):
        Ensemble(np.array([[1.0, 2.0]]))
    with pytest.raises(ContractViolation):
        Ensemble(np.array([]))


def test_normal_moments_and_cdf():
    f = Normal(1.5, 4.0)
    assert f.mean() == 1.5
    assert f.variance() == 4.0
    assert f.sd == 2.0
    assert_allclose(f.cdf(1.5), 0.5)
    assert_allclose(f.cdf(3.5), stats.norm.cdf(1.0))
    assert_allclose(f.ppf(f.cdf(0.7)), 0.7, atol=1e-12)


def _assert_same_bits(got, want):
    # Every bit of every number; NaNs only have to be NaN in both, since
    # the sign of a NaN carries no meaning.
    assert type(got) is type(want)
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    assert_array_equal(np.isnan(got), np.isnan(want))
    num = ~np.isnan(want)
    assert_array_equal(got[num].view(np.int64), want[num].view(np.int64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    mu=st.floats(-1e3, 1e3),
    sd=st.floats(1e-3, 1e3),
    x=st.floats(allow_nan=True, allow_infinity=True),
    q=st.floats(-0.5, 1.5),
)
# A point where squaring the numpy scalar u with u**2 (C pow) and with
# u * u (what numpy does for arrays) differ in the last bit.
@example(mu=3.07, sd=0.65, x=-3.38, q=0.5)
def test_normal_methods_match_scipy_bit_for_bit(mu, sd, x, q):
    """cdf, sf, pdf, ppf and support_interval of Normal repeat
    scipy.stats.norm's arithmetic, so every bit agrees, at +-inf, NaN and
    q outside (0, 1) too, for scalars and arrays alike."""
    f = Normal(mu, sd * sd)
    ref = stats.norm(mu, f.sd)
    xs = np.array([x, np.inf, -np.inf, np.nan, mu, mu + 3.0 * sd])
    qs = np.array([q, 0.0, 1.0, 1.5, np.nan, 1e-12])
    for method in ("cdf", "sf", "pdf"):
        _assert_same_bits(getattr(f, method)(xs), getattr(ref, method)(xs))
        _assert_same_bits(getattr(f, method)(x), getattr(ref, method)(x))
    _assert_same_bits(f.ppf(qs), ref.ppf(qs))
    _assert_same_bits(f.ppf(q), ref.ppf(q))
    assert f.support_interval() == (float(ref.ppf(1e-12)), float(ref.ppf(1.0 - 1e-12)))


# Points where the location-scale steps, the masks of scipy's generic
# methods and the special functions' own edge cases all show; at -2.7067,
# for location 0.2 and scale 1.3, the numpy scalar z gives z**2 != z * z.
_XS = np.array(
    [0.0, -0.0, 0.3, -1.7, -2.7067, 2.9, 40.0, -40.0, 1e300, -1e300, np.inf, -np.inf, np.nan]
)
_QS = np.array([0.0, -0.0, 1.0, 1e-300, 0.5, -0.1, 1.1, np.nan, 1e-12, 1.0 - 1e-12])
_DFS = (0.75, 1.0, 1.5, 2.0, 2.5, 5.0, 30.0)


@pytest.mark.parametrize(
    "f",
    [Logistic(m, s) for m, s in ((0.0, 1.0), (-0.0, 2.0), (-0.5, 0.7), (3.0, 1e-3))]
    + [StudentT(df, 0.2, 1.3) for df in _DFS]
    + [StudentT(0.75, -4.0, 1e-3), StudentT(5.0, -4.0, 1e-3), StudentT(2.5, -0.0, 1.0)],
    ids=repr,
)
def test_logistic_and_t_methods_match_scipy_bit_for_bit(f):
    """cdf, sf, pdf, ppf, mean, variance and sample of Logistic and
    StudentT repeat the frozen scipy object's arithmetic, so every bit
    agrees, at +-0, +-inf, NaN, in the far tails and at q outside (0, 1),
    for scalars and arrays alike."""
    frozen = {Logistic: stats.logistic, StudentT: stats.t}[type(f)](*astuple(f))
    xs = np.concatenate([_XS, np.random.default_rng(3).standard_cauchy(200)])
    with np.errstate(over="ignore"):
        for method in ("cdf", "sf", "pdf"):
            _assert_same_bits(getattr(f, method)(xs), getattr(frozen, method)(xs))
            for x in _XS:
                _assert_same_bits(getattr(f, method)(x), getattr(frozen, method)(x))
    _assert_same_bits(f.ppf(_QS), frozen.ppf(_QS))
    for q in _QS:
        _assert_same_bits(f.ppf(q), frozen.ppf(q))
    _assert_same_bits(f.mean(), float(frozen.mean()))
    _assert_same_bits(f.variance(), float(frozen.var()))
    for n in (1, 7, 1000):
        got = f.sample(n, np.random.default_rng(41))
        _assert_same_bits(got, frozen.rvs(size=n, random_state=np.random.default_rng(41)))


@pytest.mark.parametrize("df", _DFS)
def test_student_t_quantile_is_minus_inf_at_zero(df):
    """scipy.special.stdtrit(df, 0) is +inf (scipy 1.17); the quantile at
    q = 0 is the lower end of the support, as the frozen object gives,
    the upper end at q = 1, and NaN outside [0, 1]."""
    f = StudentT(df, 0.3, 1.2)
    assert f.ppf(0.0) == f.ppf(-0.0) == -np.inf
    assert f.ppf(1.0) == np.inf
    got = f.ppf(np.array([0.0, -0.0, 1.0, -0.1, 1.1, np.nan]))
    assert_array_equal(got[:3], [-np.inf, -np.inf, np.inf])
    assert np.isnan(got[3:]).all()
    assert np.isnan(f.ppf(np.nan)) and np.isnan(f.ppf(-0.1)) and np.isnan(f.ppf(1.1))


def test_normal_rejects_nonpositive_variance():
    with pytest.raises(ContractViolation):
        Normal(0.0, 0.0)
    with pytest.raises(ContractViolation):
        Normal(0.0, -1.0)


# A column of forecasts: array parameters broadcast together, and each
# value is the bits of that forecast's own scalar call.
_COLUMNS = [
    (Normal, (np.array([0.0, -1.5, 2.0, 1e3]), np.array([1.0, 0.25, 9.0, 1e-4]))),
    (Normal, (np.array([[0.3], [-0.7]]), 2.0)),
    (Logistic, (np.array([0.0, -0.0, 3.0, -0.5]), np.array([1.0, 2.0, 1e-3, 0.7]))),
    (StudentT, (np.array([0.75, 1.0, 2.5, 5.0, 30.0]), 0.2, np.array([1.3, 1e-3, 1.0, 2.0, 0.5]))),
    (StudentT, (5.0, np.array([-4.0, 0.0, 4.0]), 1.3)),
]


@pytest.mark.parametrize(
    "family, params", _COLUMNS, ids=["normal", "normal-2d", "logistic", "t-df", "t-location"]
)
def test_array_parameters_equal_the_scalar_calls_bit_for_bit(family, params):
    f = family(*params)
    shape = np.broadcast(*params).shape
    cols = [np.broadcast_to(p, shape) for p in params]
    # Points of the broadcast shape, and one point for every forecast.
    xs = np.resize(_XS, shape)
    qs = np.resize(_QS, shape)
    with np.errstate(over="ignore"):
        for x in (xs, 0.3, np.inf, -np.inf):
            for method in ("cdf", "sf", "pdf"):
                got = getattr(f, method)(x)
                want = [getattr(family(*(c[i] for c in cols)), method)(np.broadcast_to(x, shape)[i])
                        for i in np.ndindex(shape)]
                assert got.shape == shape, method
                assert np.array_equal(_bits(got).ravel(), _bits(want)), (method, x)
        for q in (qs, 0.0, 1.0, 0.5):
            got = f.ppf(q)
            want = [family(*(c[i] for c in cols)).ppf(np.broadcast_to(q, shape)[i])
                    for i in np.ndindex(shape)]
            assert got.shape == shape
            assert np.array_equal(_bits(got).ravel(), _bits(want)), q


def test_array_parameters_are_checked_elementwise_and_stored_as_given():
    mu, var = np.array([0.0, 1.0]), [1.0, 4.0]
    f = Normal(mu, var)
    assert f.mean_ is mu and f.variance_ is var
    assert_array_equal(f.sd, [1.0, 2.0])
    assert type(Normal(np.array([0.0, 1.0]), 4.0).sd) is float
    bad = [
        (Normal, (np.array([0.0, np.nan]), 1.0), "finite"),
        (Normal, (0.0, np.array([1.0, np.inf])), "finite"),
        (Normal, (0.0, np.array([1.0, 0.0])), "positive"),
        (Logistic, (np.array([0.0, np.inf]), 1.0), "positive and finite"),
        (Logistic, (0.0, np.array([1.0, -1.0])), "positive and finite"),
        (StudentT, (np.array([5.0, np.nan]), 0.0, 1.0), "finite"),
        (StudentT, (np.array([5.0, 0.0]), 0.0, 1.0), "df > 0"),
        (StudentT, (5.0, 0.0, np.array([1.0, -1.0])), "scale > 0"),
    ]
    for family, params, match in bad:
        with pytest.raises(ContractViolation, match=match):
            family(*params)


def test_independent_product_refuses_array_parameters():
    # Its cdf would multiply every forecast of the column.
    for margin in (Normal(np.zeros(3), 1.0), Logistic(0.0, np.ones(2)), StudentT(np.full(2, 5.0), 0.0, 1.0)):
        with pytest.raises(ContractViolation, match="one forecast"):
            IndependentProduct((Normal(0.0, 1.0), margin))


def test_logistic_moments():
    s = 0.8
    f = Logistic(2.0, s)
    assert f.mean() == 2.0
    assert_allclose(f.variance(), s**2 * np.pi**2 / 3.0)
    assert_allclose(f.cdf(2.0), 0.5)


def test_student_t_from_moments():
    f = StudentT.from_moments(5.0, 0.3, 2.0)
    assert_allclose(f.mean(), 0.3)
    assert_allclose(f.variance(), 2.0)
    with pytest.raises(ContractViolation):
        StudentT.from_moments(2.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "params", [(np.nan, 0.0, 1.0), (5.0, np.nan, 1.0), (5.0, np.inf, 1.0), (5.0, 0.0, np.inf)]
)
def test_student_t_rejects_non_finite_parameters(params):
    with pytest.raises(ContractViolation):
        StudentT(*params)


def test_support_interval_captures_tail_mass():
    for f in (Normal(0.0, 1.0), Logistic(1.0, 0.5), StudentT.from_moments(5.0, 0.0, 1.0)):
        lo, hi = f.support_interval(1e-10)
        assert f.cdf(lo) <= 2e-10
        assert 1.0 - f.cdf(hi) <= 2e-10
        assert lo < f.mean() < hi


def test_sampling_is_seeded():
    f = Normal(0.0, 1.0)
    a = f.sample(5, np.random.default_rng(7))
    b = f.sample(5, np.random.default_rng(7))
    assert_allclose(a, b)
    c = f.sample(5, np.random.default_rng(8))
    assert not np.allclose(a, c)


@pytest.mark.parametrize(
    "f, frozen",
    [
        (Normal(1.0, 2.0), stats.norm(1.0, np.sqrt(2.0))),
        (Logistic(-0.5, 0.7), stats.logistic(-0.5, 0.7)),
        (StudentT(4.5, 0.2, 1.3), stats.t(4.5, 0.2, 1.3)),
    ],
    ids=["normal", "logistic", "student_t"],
)
def test_sample_equals_the_frozen_scipy_draws(f, frozen):
    # A sample is the generator's standard draw times scale plus loc, as
    # the frozen object makes it, so the draws are its draws under the
    # same seed.
    for n in (1, 7, 10_000):
        got = f.sample(n, np.random.default_rng(41))
        want = frozen.rvs(size=n, random_state=np.random.default_rng(41))
        assert_array_equal(got, want)
    # The generator's stream advances as it does under scipy.
    gen, ref = np.random.default_rng(42), np.random.default_rng(42)
    f.sample(5, gen)
    frozen.rvs(size=5, random_state=ref)
    assert gen.random() == ref.random()


def test_sample_moments():
    rng = np.random.default_rng(11)
    for f in (Normal(1.0, 2.0), Logistic(-0.5, 0.7), StudentT.from_moments(6.0, 0.2, 1.5)):
        x = f.sample(200_000, rng)
        assert abs(x.mean() - f.mean()) < 0.02
        assert abs(x.var() / f.variance() - 1.0) < 0.05


def test_independent_product():
    p = IndependentProduct((Normal(0.0, 1.0), Normal(0.0, 1.0)))
    assert p.dim == 2
    assert_allclose(p.cdf(np.zeros(2)), 0.25)
    x = p.sample(100, np.random.default_rng(3))
    assert x.shape == (100, 2)


def test_independent_product_needs_margins():
    with pytest.raises(ContractViolation):
        IndependentProduct(())

