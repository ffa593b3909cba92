import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import stats

from wverif import ContractViolation, Ensemble, Normal
from wverif.forecasts import IndependentProduct, Logistic, StudentT


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


def test_normal_rejects_nonpositive_variance():
    with pytest.raises(ContractViolation):
        Normal(0.0, 0.0)
    with pytest.raises(ContractViolation):
        Normal(0.0, -1.0)


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
    # scipy.stats is imported only when a sample is drawn; the draws stay
    # those of the frozen object under the same seed.
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

