import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import stats

from wverif import (
    ContractViolation,
    DegenerateConditional,
    Ensemble,
    InsufficientData,
    MvEnsemble,
    Normal,
    UnsupportedInput,
    reliability_index,
)
from wverif.calibration import (
    HistogramSummary,
    _cpit_values,
    _isotonic,
    _ranks,
    corp_reliability,
    cpit,
    histogram_summary,
    pit,
    pit_ecdf,
    prerank_cpit,
    rank,
    rank_histogram,
)
from wverif.forecasts import IndependentProduct, Logistic


def test_pit_values():
    assert pit(Logistic(0.0, 1.0), np.log(3.0)) == pytest.approx(0.75)
    assert pit(Normal(0.0, 1.0), 0.0) == pytest.approx(0.5)
    with pytest.raises(UnsupportedInput):
        pit(Ensemble(np.array([0.0, 1.0])), 0.5)


def test_pit_uniform_under_truth():
    rng = np.random.default_rng(1)
    f = Normal(0.3, 2.0)
    u = np.array([pit(f, y) for y in f.sample(4000, rng)])
    d = stats.kstest(u, "uniform").statistic
    assert d < 1.63 / np.sqrt(u.size)


def test_rank_deterministic_without_ties():
    r = rank(Ensemble(np.array([1.0, 2.0, 3.0])), 2.5, np.random.default_rng(0))
    assert r == 3
    assert rank(Ensemble(np.array([1.0, 2.0, 3.0])), 0.0, np.random.default_rng(0)) == 1
    assert rank(Ensemble(np.array([1.0, 2.0, 3.0])), 4.0, np.random.default_rng(0)) == 4


def test_rank_ties_spread_uniformly():
    e = Ensemble(np.array([1.0, 2.0, 2.0, 3.0]))
    rng = np.random.default_rng(5)
    counts = np.zeros(6)
    n = 30000
    for _ in range(n):
        counts[rank(e, 2.0, rng) - 1] += 1
    # admissible ranks are 2, 3, 4
    assert counts[0] == counts[4] == counts[5] == 0
    assert_allclose(counts[1:4] / n, np.ones(3) / 3.0, atol=0.02)


def test_stacked_ranks_equal_per_record_ranks_with_ties():
    # Members and observations on a 0.5 grid, so many cases have ties.
    rng = np.random.default_rng(11)
    members = np.round(rng.normal(0.0, 1.5, (400, 9)) * 2.0) / 2.0
    obs = np.round(rng.normal(0.0, 1.5, 400) * 2.0) / 2.0
    assert 0 < np.sum(np.any(members == obs[:, None], axis=1)) < 400
    one, many = np.random.default_rng(4), np.random.default_rng(4)
    want = [rank(Ensemble(x), y, one) for x, y in zip(members, obs)]
    got = _ranks(members, obs, many)
    assert got.tolist() == want
    # Both routes leave the generator in the same state.
    assert many.random() == one.random()


def test_cpit_kernel_matches_a_40_digit_oracle():
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    rng = np.random.default_rng(12)
    # Standardised threshold a and observation b > a; S(t) stays above
    # the floor for a <= 7.
    a = rng.uniform(-3.0, 7.0, 1000)
    b = a + rng.exponential(0.5, a.size)
    got = _cpit_values(stats.norm.sf(a), stats.norm.sf(b))

    def q(x):
        return mpmath.erfc(mpmath.mpf(float(x)) / mpmath.sqrt(2)) / 2

    want = np.array([float((q(x) - q(z)) / q(x)) for x, z in zip(a, b)])
    assert np.max(np.abs(got - want)) < 5e-14


def test_cpit_kernel_marks_degenerate_tails_and_broadcasts():
    got = _cpit_values(np.array([0.5, 1e-12, 0.0]), np.array([0.25, 1e-13, 0.0]))
    assert got[0] == 0.5 and np.isnan(got[1]) and np.isnan(got[2])
    # One S(t) for many observations, those at or below t giving 0.
    assert_allclose(_cpit_values(0.5, [0.75, 0.5, 0.25, 0.0]), [0.0, 0.0, 0.5, 1.0])


def test_cpit_basic():
    f = Normal(0.0, 1.0)
    y = float(f.ppf(0.8))
    assert cpit(f, y, 0.0) == pytest.approx((0.8 - 0.5) / 0.5)
    assert cpit(f, -0.5, 0.0) is None
    assert cpit(f, 0.0, 0.0) is None


def test_cpit_degenerate_tail():
    with pytest.raises(DegenerateConditional):
        cpit(Normal(0.0, 1.0), 50.0, 45.0)


# NaN has no PIT, rank or conditional PIT; +-inf keeps its answer.


def test_pit_refuses_nan():
    f = Normal(0.0, 1.0)
    with pytest.raises(ContractViolation, match="y must not be NaN"):
        pit(f, np.nan)
    assert pit(f, -np.inf) == 0.0 and pit(f, np.inf) == 1.0


def test_rank_refuses_nan():
    e = Ensemble(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ContractViolation, match="y must not be NaN"):
        rank(e, np.nan, 0)
    assert rank(e, -np.inf, 0) == 1 and rank(e, np.inf, 0) == 4


def test_cpit_refuses_nan():
    f = Normal(0.0, 1.0)
    members = Ensemble(np.linspace(-3.0, 3.0, 61))
    for forecast in (f, members):
        for y, t, name in ((np.nan, 0.5, "y"), (1.0, np.nan, "t")):
            with pytest.raises(ContractViolation, match=f"{name} must not be NaN"):
                cpit(forecast, y, t)
    assert cpit(f, np.inf, 0.5) == 1.0
    assert cpit(f, -np.inf, 0.5) is None and cpit(f, 1.0, np.inf) is None
    assert cpit(f, 1.0, -np.inf) == pytest.approx(pit(f, 1.0), rel=1e-15)


def test_prerank_cpit_refuses_nan():
    def total(z):
        return z.sum(-1)

    product = IndependentProduct((Normal(0.0, 1.0), Normal(0.0, 1.0)))
    members = MvEnsemble(np.random.default_rng(4).normal(size=(2, 50)))
    for forecast in (product, members):
        for y, t, name in (([np.nan, 1.0], [0.0, 0.0], "y"), ([1.0, 1.0], [0.0, np.nan], "thresholds")):
            with pytest.raises(ContractViolation, match=f"{name} must not be NaN"):
                prerank_cpit(forecast, y, t, total, n_samples=1000)


def test_cpit_ensemble_needs_tail_members():
    rng = np.random.default_rng(2)
    big = Ensemble(np.concatenate([rng.normal(size=30), rng.normal(3.0, 0.5, 30)]))
    u = cpit(big, 3.2, 2.0)
    assert u is not None and 0.0 <= u <= 1.0
    sparse = Ensemble(np.linspace(-1.0, 0.5, 21))
    with pytest.raises(UnsupportedInput):
        cpit(sparse, 0.45, 0.4)


def test_cpit_uniform_for_ideal_forecaster():
    rng = np.random.default_rng(3)
    n = 20000
    mu = rng.normal(0.0, np.sqrt(2.0 / 3.0), n)
    y = rng.normal(mu, np.sqrt(1.0 / 3.0))
    t = 1.0
    vals = [cpit(Normal(m, 1.0 / 3.0), yy, t) for m, yy in zip(mu, y) if yy > t]
    u = np.array(vals, dtype=float)
    assert u.size > 500
    d = stats.kstest(u, "uniform").statistic
    assert d < 1.63 / np.sqrt(u.size)


def test_pit_ecdf():
    u, p = pit_ecdf([0.3, 0.1, 0.9])
    assert_allclose(u, [0.1, 0.3, 0.9])
    assert_allclose(p, [1.0 / 3.0, 2.0 / 3.0, 1.0])
    with pytest.raises(InsufficientData):
        pit_ecdf([])


def test_pit_ecdf_refuses_nan():
    """As pit, rank and cpit do: a NaN would sort last and read as the
    largest PIT value."""
    with pytest.raises(ContractViolation, match="NaN"):
        pit_ecdf([np.nan, 0.5])


def test_histogram_summary():
    h = histogram_summary(np.array([0.05, 0.05, 0.55]), bins=10)
    assert h.k == 10
    assert h.n == 3
    assert h.counts[0] == 2
    assert h.counts[5] == 1
    assert_allclose(h.frequencies.sum(), 1.0)
    assert h.bin_edges[0] == 0.0 and h.bin_edges[-1] == 1.0


def test_histogram_summary_rejects_out_of_range():
    with pytest.raises(ContractViolation):
        histogram_summary(np.array([-0.1, 0.5]))
    with pytest.raises(ContractViolation, match="must lie inside"):
        histogram_summary(np.array([0.2, np.nan]))
    for bins in (0, -3, 2.5, True, np.float64(3.0)):
        with pytest.raises(ContractViolation, match="bins"):
            histogram_summary(np.array([0.1, 0.5]), bins=bins)


def test_rank_histogram_counts():
    h = rank_histogram(np.array([1, 1, 2, 4]), n_ranks=4)
    assert_allclose(h.counts, [2, 1, 0, 1])
    with pytest.raises(ContractViolation):
        rank_histogram(np.array([0]), n_ranks=4)
    for ranks in ([5], [1.5, 2.0], [np.nan], [np.inf]):
        with pytest.raises(ContractViolation):
            rank_histogram(np.array(ranks), n_ranks=4)
    for n_ranks in (0, 2.5, True):
        with pytest.raises(ContractViolation, match="n_ranks"):
            rank_histogram([1], n_ranks)


def test_reliability_index_extremes():
    k = 20
    point_mass = np.zeros(k)
    point_mass[0] = 1.0
    assert reliability_index(point_mass) == pytest.approx(2.0 * (k - 1) / k)
    assert reliability_index(np.ones(k) / k) == 0.0
    h = histogram_summary(np.full(100, 0.025), bins=20)
    assert reliability_index(h) == pytest.approx(2.0 * 19 / 20)
    for freqs in ([np.nan, 1.0], [1.5, -0.5], [0.5, 0.4]):
        with pytest.raises(ContractViolation, match="non-negative and sum to one"):
            reliability_index(freqs)


def test_corp_pools_adjacent_violators():
    fit = corp_reliability(
        np.array([0.2, 0.8]), np.array([1.0, 0.0]), resamples=50, seed=0
    )
    assert_allclose(fit.cep, [0.5, 0.5])
    assert_allclose(fit.probs, [0.2, 0.8])


def test_corp_output_is_monotone_and_banded():
    rng = np.random.default_rng(11)
    p = rng.uniform(size=800)
    o = (rng.uniform(size=800) < p).astype(float)
    fit = corp_reliability(p, o, resamples=200, seed=4)
    assert np.all(np.diff(fit.cep) >= -1e-12)
    assert np.all(fit.band_lower <= fit.band_upper + 1e-12)
    assert fit.n == 800
    # a calibrated forecaster should rarely escape its own band
    inside = (fit.cep >= fit.band_lower - 1e-9) & (fit.cep <= fit.band_upper + 1e-9)
    assert inside.mean() > 0.9


def test_corp_band_tracks_the_diagonal():
    rng = np.random.default_rng(12)
    p = rng.uniform(size=2000)
    o = (rng.uniform(size=2000) < p).astype(float)
    fit = corp_reliability(p, o, resamples=300, seed=9)
    frac = np.mean((fit.probs >= fit.band_lower) & (fit.probs <= fit.band_upper))
    assert frac > 0.95


def test_corp_needs_a_resample():
    p = np.linspace(0.05, 0.95, 20)
    o = (np.arange(20) % 3 == 0).astype(float)
    for resamples in (0, -1, 2.5, True):
        with pytest.raises(ContractViolation, match="resamples"):
            corp_reliability(p, o, resamples=resamples, seed=7)


def test_corp_resampling_is_seeded():
    p = np.linspace(0.05, 0.95, 200)
    o = (np.arange(200) % 3 == 0).astype(float)
    a = corp_reliability(p, o, resamples=100, seed=7)
    b = corp_reliability(p, o, resamples=100, seed=7)
    assert_allclose(a.band_lower, b.band_lower)
    assert_allclose(a.band_upper, b.band_upper)
    c = corp_reliability(p, o, resamples=100, seed=8)
    assert not np.allclose(a.band_upper, c.band_upper)


def _zero_one_sequences():
    """Seeded 0/1 sequences like the CORP resamples (outcomes drawn at
    sorted event probabilities) and the degenerate patterns."""
    for n in (1, 2, 600, 5_000, 100_000):
        for seed in range(60):
            rng = np.random.default_rng((seed, n))
            ps = np.sort(rng.beta(rng.uniform(0.2, 2.0), rng.uniform(0.5, 10.0), n))
            yield rng.random(n) < ps
    yield np.zeros(5_000, dtype=bool)
    yield np.ones(5_000, dtype=bool)
    yield np.arange(5_001) % 2 == 0
    yield np.arange(5_001) % 2 == 1


def test_isotonic_by_runs_equals_plain_fit_bit_for_bit():
    """The fit over pooled runs gives scipy's plain fit to the bit, at
    every size, everywhere and at probe positions."""
    from scipy.optimize import isotonic_regression

    count = 0
    for y in _zero_one_sequences():
        want = isotonic_regression(y.astype(float)).x
        probe = np.unique(np.linspace(0, y.size - 1, min(y.size, 1024)).round().astype(int))
        assert np.array_equal(_isotonic(y), want)
        assert np.array_equal(_isotonic(y.astype(float)), want)
        assert np.array_equal(_isotonic(y, probe), want[probe])
        count += 1
    assert count == 304


def test_corp_input_validation():
    with pytest.raises(ContractViolation):
        corp_reliability(np.array([1.2]), np.array([1.0]))
    with pytest.raises(ContractViolation, match="must lie in"):
        corp_reliability(np.array([0.2, np.nan, 0.7, 0.4]), np.array([0.0, 1.0, 1.0, 0.0]))
    with pytest.raises(ContractViolation):
        corp_reliability(np.array([0.5]), np.array([0.4]))
    with pytest.raises(InsufficientData):
        corp_reliability(np.array([]), np.array([]))


def test_prerank_cpit_univariate_reduction():
    """In one dimension with an increasing prerank the conditional PIT of
    the summary equals the plain conditional PIT."""
    f = IndependentProduct((Normal(0.0, 1.0),))
    y = np.array([1.3])
    t = np.array([0.5])
    got = prerank_cpit(f, y, t, lambda v: v[..., 0])
    want = cpit(Normal(0.0, 1.0), 1.3, 0.5)
    assert got == pytest.approx(want, abs=1e-12)
    assert prerank_cpit(f, np.array([0.2]), t, lambda v: v[..., 0]) is None


def test_prerank_cpit_mean_summary_matches_direct_mc():
    """The sampled route should agree with an oracle that conditions the
    summary distribution directly; the mean of three independent normals
    is normal, so the oracle is exact."""
    margins = (Normal(0.0, 1.0), Normal(0.5, 2.0), Normal(-0.2, 0.5))
    f = IndependentProduct(margins)
    y = np.array([1.0, 2.0, 0.4])
    t = np.array([0.1, 0.1, 0.1])

    def mean_prerank(v):
        return np.mean(v, axis=-1)

    got = prerank_cpit(f, y, t, mean_prerank, n_samples=400_000, seed=5)

    mean = sum(m.mean() for m in margins) / 3.0
    var = sum(m.variance() for m in margins) / 9.0
    summary = Normal(mean, var)
    want = cpit(summary, float(np.mean(y)), float(np.mean(t)))
    assert got == pytest.approx(want, abs=5e-3)


def test_prerank_cpit_row_fallback_and_error_propagation():
    """A prerank written for one d-vector falls back to row-by-row
    evaluation; an error that is not about the input's shape propagates
    instead of being retried row by row."""
    f = IndependentProduct((Normal(0.0, 1.0), Normal(0.0, 1.0)))
    y = np.array([1.0, 1.5])
    t = np.array([0.2, 0.2])

    def sum_prerank(v):
        return float(sum(v))  # TypeError on a (n, 2) stack

    got = prerank_cpit(f, y, t, sum_prerank, n_samples=2000, seed=1)
    want = prerank_cpit(f, y, t, lambda v: np.sum(v, axis=-1), n_samples=2000, seed=1)
    assert got == want

    calls = []

    def failing_prerank(v):
        calls.append(np.shape(v))
        raise ZeroDivisionError("prerank failed")

    with pytest.raises(ZeroDivisionError):
        prerank_cpit(f, y, t, failing_prerank)
    assert calls == [(1, 2)]


def test_prerank_cpit_ensemble_route():
    rng = np.random.default_rng(6)
    members = rng.normal(size=(3, 200))
    from wverif import MvEnsemble

    e = MvEnsemble(members)
    y = np.array([0.9, 0.9, 0.9])
    t = np.zeros(3)
    got = prerank_cpit(e, y, t, lambda v: np.mean(v, axis=-1))
    assert got is None or 0.0 <= got <= 1.0


_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _tied_cases(draw):
    """Members (n, m) and observations (n,) on an integer grid whose width
    is drawn, so that ties between members and observations are common,
    and a generator seed."""
    n = draw(st.integers(1, 40))
    m = draw(st.integers(1, 25))
    k = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    members = rng.integers(-k, k + 1, (n, m)).astype(float)
    obs = rng.integers(-k - 1, k + 2, n).astype(float)
    return members, obs, draw(st.integers(0, 2**32 - 1))


@_PROPERTY_SETTINGS
@given(_tied_cases())
def test_ranks_lie_in_range_and_the_histogram_counts_every_case(case):
    members, obs, seed = case
    m = members.shape[1]
    r = _ranks(members, obs, np.random.default_rng(seed))
    assert r.min() >= 1 and r.max() <= m + 1
    hist = rank_histogram(r, m + 1)
    assert hist.k == m + 1 and hist.counts.sum() == obs.size


_INCREASING = (
    lambda z: 3.0 * z - 7.0,
    lambda z: np.exp(z / 8.0),
    np.arctan,
    np.cbrt,
)


@_PROPERTY_SETTINGS
@given(_tied_cases(), st.sampled_from(_INCREASING))
def test_ranks_are_invariant_under_increasing_maps(case, f):
    # On an integer grid of width at most 20 each map keeps distinct
    # values distinct, so ties, and the generator's draws, are unchanged.
    members, obs, seed = case
    want = _ranks(members, obs, np.random.default_rng(seed))
    got = _ranks(f(members), f(obs), np.random.default_rng(seed))
    assert np.array_equal(got, want)


@_PROPERTY_SETTINGS
@given(
    st.sampled_from(("normal", "logistic")),
    st.floats(-5.0, 5.0),
    st.floats(0.1, 4.0),
    st.floats(-3.0, 3.0),
    st.floats(1e-6, 10.0),
)
def test_cpit_lies_in_the_unit_interval(family, loc, scale, a, gap):
    f = Normal(loc, scale * scale) if family == "normal" else Logistic(loc, scale)
    t = loc + a * scale
    u = cpit(f, t + gap, t)
    assert 0.0 <= u <= 1.0
    assert cpit(f, t - gap, t) is None


def test_cpit_far_below_the_forecast_is_the_pit():
    # S(-40) is 1.0 exactly, so the conditional PIT is the plain one.
    f = Normal(0.3, 1.2)
    assert float(f.sf(-40.0)) == 1.0
    assert cpit(f, 0.7, -40.0) == pit(f, 0.7)


def _pava(y) -> np.ndarray:
    """Pool adjacent violators over single points, with no runs pooled
    beforehand: the reference fit of ``_isotonic``."""
    blocks = []  # [mean, weight]
    for v in y:
        blocks.append([float(v), 1.0])
        while len(blocks) > 1 and blocks[-2][0] > blocks[-1][0]:
            (a, wa), (b, wb) = blocks.pop(-2), blocks.pop()
            blocks.append([(a * wa + b * wb) / (wa + wb), wa + wb])
    return np.concatenate([np.full(int(w), mean) for mean, w in blocks])


@_PROPERTY_SETTINGS
@given(st.lists(st.booleans(), min_size=1, max_size=300))
def test_isotonic_fit_is_monotone_keeps_the_sum_and_equals_pava(bits):
    y = np.array(bits)
    fit = _isotonic(y)
    assert np.all(np.diff(fit) >= 0.0)
    assert fit.sum() == pytest.approx(y.sum(), abs=1e-9)
    assert_allclose(fit, _pava(y), rtol=1e-12, atol=1e-12)
    at = np.arange(0, y.size, 3)
    assert np.array_equal(_isotonic(y, at), fit[at])
