import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import expit, ndtr, stdtr

from wverif import ContractViolation, IndicatorAbove, Normal, crps, twcrps, vrcrps
from wverif.calibration import _cpit_values, histogram_summary
from wverif.forecasts import Logistic, StudentT
from wverif.synthlab import (
    _MV_SCORES,
    _UNI_SCORES,
    ExperimentSpec,
    _uni_weight,
    run_experiment,
    run_ideal_forecaster,
    run_impropriety_demo,
    run_propriety_mc,
    run_score_curves,
    run_tail_forecasters,
)
from wverif.uniscores import _closed_form, _parametric_score, owcrps_bs
from wverif.weights import CensorAbove, Constant, GaussCdf, IndicatorBelow, canonical_chaining


def _per_case(dist, score, ys, w):
    """The same score through the per-case functions, one grid per case
    for a family or weight without a closed form."""
    if score == "crps":
        return np.array([crps(dist, y).value for y in ys])
    if score == "twcrps":
        chain = canonical_chaining(w)
        return np.array([twcrps(dist, y, chain).value for y in ys])
    if score == "owcrps_bs":
        return np.array([owcrps_bs(dist, y, w.t).value for y in ys])
    return np.array([vrcrps(dist, y, w, 0.0).value for y in ys])


@pytest.mark.parametrize(
    "dist",
    (
        Normal(0.3, 1.44),
        StudentT.from_moments(5.0, 0.3, 1.44),
        Logistic(0.3, 1.2 * np.sqrt(3.0) / np.pi),
    ),
    ids=("normal", "t5", "logistic"),
)
def test_batch_route_matches_per_case_functions(dist):
    """Scoring all draws at once agrees with scoring each draw on its
    own, for each forecast family of the propriety pairs under each of
    their weight families: bit for bit where the closed form serves
    both, and within 1e-6 on tabulated cdfs, where the batch has one
    grid that spans all draws and each case its own with the draw as a
    knot; draws between the nodes are integrated to through the
    quadratic of their Simpson panel."""
    ys = np.array([-1.8, -0.2, 0.31, 0.9, 2.4])
    t = 0.31
    cases = [
        ("crps", Constant()),
        ("twcrps", GaussCdf(t, 1.2)),
        ("owcrps_bs", IndicatorAbove(t)),
        ("vrcrps", GaussCdf(t, 1.2)),
    ]
    cases += [(s, _uni_weight(k, 0.9, 1.2)) for k in range(7) for s in ("twcrps", "vrcrps")]
    for score, w in cases:
        got = _parametric_score(score, dist, ys, w)
        want = _per_case(dist, score, ys, w)
        if _closed_form(dist, w):
            assert got.tolist() == want.tolist(), (score, w)
        else:
            assert np.abs(got - want).max() < 1e-6, (score, w)


def test_batch_route_of_a_normal_under_closed_form_weights_is_the_per_case_closed_form():
    dist = Normal(0.3, 1.44)
    ys = np.array([-1.8, -0.2, 0.31, 0.9, 2.4])
    t = 0.31
    cases = [("crps", Constant()), ("owcrps_bs", IndicatorAbove(t))] + [
        (score, w) for w in (IndicatorAbove(t), IndicatorBelow(t)) for score in ("twcrps", "vrcrps")
    ]
    for score, w in cases:
        got = _parametric_score(score, dist, ys, w)
        assert got.tolist() == _per_case(dist, score, ys, w).tolist(), (score, w)


def test_batch_route_indicator_weights():
    dist = Logistic(-0.2, 0.9)
    ys = np.array([-2.0, -0.4, 0.31, 1.7])
    for t in (0.31, -0.5):
        for w in (IndicatorAbove(t), IndicatorBelow(t)):
            for score in ("twcrps", "vrcrps"):
                got = _parametric_score(score, dist, ys, w)
                assert np.abs(got - _per_case(dist, score, ys, w)).max() < 1e-6, (score, w)
        got = _parametric_score("owcrps_bs", dist, ys, IndicatorAbove(t))
        want = _per_case(dist, "owcrps_bs", ys, IndicatorAbove(t))
        assert np.abs(got - want).max() < 1e-6


def test_synthlab_scores_only_through_the_dispatch_points():
    """synthlab has no scoring code of its own: of the scoring modules
    it imports only the univariate route that the per-case functions
    call and the multivariate kernel table that archive scores with."""
    import wverif.synthlab

    tree = ast.parse(Path(wverif.synthlab.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    scoring = {
        (module, name)
        for module, name in imported
        if "scores" in (module or "") or "scores" in (name or "")
    }
    assert scoring == {("uniscores", "_parametric_score"), ("mvscores", "_mv_kernel")}
    kernels = {"_CdfGrid", "_normal_score", "_energy", "_variogram", "_vr_energy", "_closed_form"}
    assert not kernels & {name for _, name in imported}


def test_score_curves_shapes():
    res = run_score_curves(t=1.0, ys=np.linspace(-3.0, 3.0, 61), x0=0.0)
    below = res.ys < 1.0
    assert np.ptp(res.twcrps[below]) < 1e-8
    assert np.ptp(res.vrcrps[below]) < 1e-8
    assert_allclose(res.owcrps[below], 0.0, atol=1e-12)
    assert np.all(res.crps > 0.0)
    # threshold-weighted score stays continuous across the threshold
    f = Normal(0.0, 1.0)
    eps = 1e-7
    gap = abs(
        twcrps(f, 1.0 + eps, CensorAbove(1.0)).value
        - twcrps(f, 1.0 - eps, CensorAbove(1.0)).value
    )
    assert gap < 1e-6


def test_ideal_forecaster_reduced():
    res = run_ideal_forecaster(n=20000, seed=101)
    from wverif import reliability_index

    assert res.pit_hist.n == 20000
    assert reliability_index(res.pit_hist) < 0.1
    assert reliability_index(res.cpit_hist) < 0.25
    # restriction to exceedances skews the histogram heavily upward
    assert reliability_index(res.restricted_hist) > 0.3
    freqs = res.restricted_hist.frequencies
    assert freqs[-1] > freqs[0]


def test_ideal_forecaster_reproducible():
    a = run_ideal_forecaster(n=5000, seed=7)
    b = run_ideal_forecaster(n=5000, seed=7)
    assert_allclose(a.pit_hist.counts, b.pit_hist.counts)
    c = run_ideal_forecaster(n=5000, seed=8)
    assert not np.allclose(a.pit_hist.counts, c.pit_hist.counts)


def test_ideal_forecaster_validates_sigma2():
    with pytest.raises(ContractViolation):
        run_ideal_forecaster(n=100, sigma2=1.5)


def test_tail_forecasters_reduced():
    res = run_tail_forecasters(n=50000, seed=5, corp_resamples=50)
    assert set(res.forecasters) == {"normal", "logistic", "student_t5"}
    # roughly 2.3 percent of outcomes exceed t = 2
    assert 800 < res.n_exceed < 1600
    from wverif import reliability_index

    ri = {k: reliability_index(v.cpit_hist) for k, v in res.forecasters.items()}
    assert ri["logistic"] < ri["normal"]
    assert ri["logistic"] < ri["student_t5"]
    nf = res.forecasters["normal"].cpit_hist.frequencies
    tf = res.forecasters["student_t5"].cpit_hist.frequencies
    assert nf[-1] > nf[0]
    assert tf[0] > tf[-1]
    for fc in res.forecasters.values():
        assert fc.corp.n == res.n


def test_survival_functions_equal_scipy_stats_bit_for_bit():
    """The synthetic experiments call scipy.special where they called
    scipy.stats; at unit scale scipy.stats computes with these calls."""
    u = np.random.default_rng(5).normal(0.0, 4.0, 200_000)
    u = np.concatenate([u, [0.0, -0.0, 40.0, -40.0, np.inf, -np.inf]])
    assert np.array_equal(ndtr(u), stats.norm.cdf(u))
    assert np.array_equal(ndtr(-u), stats.norm.sf(u))
    assert np.array_equal(expit(-u), stats.logistic.sf(u))
    assert np.array_equal(stdtr(5, -u), stats.t.sf(u, df=5))


def test_ideal_forecaster_equals_the_scipy_stats_route():
    n, t, sigma2, seed = 20_000, 0.5, 0.3, 23
    res = run_ideal_forecaster(n=n, sigma2=sigma2, t=t, bins=10, seed=seed)
    gen = np.random.default_rng(seed)
    mu = gen.normal(0.0, np.sqrt(1.0 - sigma2), n)
    y = gen.normal(mu, np.sqrt(sigma2))
    sd = np.sqrt(sigma2)
    pit = stats.norm.cdf((y - mu) / sd)
    exceed = y > t
    cp = _cpit_values(
        stats.norm.sf((t - mu[exceed]) / sd), stats.norm.sf((y[exceed] - mu[exceed]) / sd)
    )
    assert np.array_equal(res.pit_hist.counts, histogram_summary(pit, bins=10).counts)
    assert np.array_equal(res.cpit_hist.counts, histogram_summary(cp, bins=10).counts)
    restricted = histogram_summary(pit[exceed], bins=10)
    assert np.array_equal(res.restricted_hist.counts, restricted.counts)


def test_tail_forecasters_equal_the_scipy_stats_route():
    n, t, seed = 20_000, 1.5, 17
    res = run_tail_forecasters(n=n, t=t, bins=10, seed=seed, corp_resamples=3)
    gen = np.random.default_rng(seed)
    s_log = 1.0 / np.pi
    mu = gen.normal(0.0, np.sqrt(2.0 / 3.0), n)
    y = mu + gen.logistic(0.0, s_log, n)
    exceed = y > t
    s_t5 = np.sqrt(1.0 / 3.0 * (5.0 - 2.0) / 5.0)
    sfs = {
        "normal": lambda x: stats.norm.sf((x - mu) / np.sqrt(1.0 / 3.0)),
        "logistic": lambda x: stats.logistic.sf((x - mu) / s_log),
        "student_t5": lambda x: stats.t.sf((x - mu) / s_t5, df=5),
    }
    for name, sf in sfs.items():
        fc = res.forecasters[name]
        st = sf(t)
        cp = _cpit_values(st[exceed], sf(y)[exceed])
        # The ecdf holds the sorted conditional PITs, the CORP fit the
        # sorted event probabilities S(t): every bit of both is compared.
        assert np.array_equal(fc.ecdf_u, np.sort(cp[~np.isnan(cp)])), name
        assert np.array_equal(fc.corp.probs, np.sort(st)), name
        hist = histogram_summary(cp[~np.isnan(cp)], bins=10)
        assert np.array_equal(fc.cpit_hist.counts, hist.counts), name


def test_propriety_mc_smoke():
    rows = run_propriety_mc(
        scores=["crps", "es"], n_pairs=3, n_uni=20000, n_mv=2000, m_members=20, seed=3
    )
    assert len(rows) == 6
    assert all(r.passed for r in rows)
    assert all(r.se_diff > 0.0 for r in rows)


def test_propriety_mc_shared_draws_leave_rows_unchanged():
    """Every multivariate score is computed on one set of draws per pair;
    each row must be the one its score gets when run alone."""
    kw = dict(n_pairs=2, n_uni=2000, n_mv=300, m_members=12, seed=5)
    single = {s: run_propriety_mc(scores=[s], **kw) for s in _UNI_SCORES + _MV_SCORES}
    assert run_propriety_mc(**kw) == [r for s in _UNI_SCORES + _MV_SCORES for r in single[s]]
    chosen = ["twvs", "es", "crps", "vres", "twvs", "vs", "twes"]
    assert run_propriety_mc(scores=",".join(chosen), **kw) == [
        r for s in chosen for r in single[s]
    ]


def test_propriety_mc_rejects_unknown_score():
    with pytest.raises(ContractViolation):
        run_propriety_mc(scores=["nope"], n_pairs=2)


def test_impropriety_demo_reduced():
    res = run_impropriety_demo(n=30000, seed=11)
    assert res.naive_prefers_truncated
    assert res.tw_prefers_truth
    assert res.naive_trunc < res.naive_truth
    assert res.tw_truth < res.tw_trunc


def test_run_experiment_dispatch():
    res = run_experiment(
        ExperimentSpec("ideal_forecaster", {"n": 2000}, seed=42)
    )
    assert res.seed == 42
    assert res.n == 2000
    with pytest.raises(ContractViolation):
        run_experiment(ExperimentSpec("not_an_experiment"))
