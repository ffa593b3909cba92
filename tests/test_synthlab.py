import ast
import importlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats
from scipy.special import expit, ndtr, stdtr

from wverif import ContractViolation, IndicatorAbove, Normal, WeightedMassZero, crps, twcrps, vrcrps
from wverif import synthlab
from wverif.calibration import _cpit_values, _rng, histogram_summary
from wverif.forecasts import Logistic, StudentT
from wverif.kernels import _mv_kernel
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
from wverif.weights import (
    BoxIndicator,
    CensorAbove,
    Constant,
    GaussCdf,
    IndicatorBelow,
    MvGaussCdf,
    canonical_chaining,
)


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


def _imports(module) -> set:
    """(module, name) of each name that ``module``'s source imports."""
    tree = ast.parse(Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(alias.name, None) for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported |= {(node.module, alias.name) for alias in node.names}
    return imported


def test_synthlab_scores_only_through_the_dispatch_points():
    """synthlab has no scoring code of its own: of the scoring modules
    it imports only the univariate route that the per-case functions
    call, the truncated-normal CRPS that the normal owCRPS is made of,
    and the kernel-score engine that archive scores with."""
    import wverif.synthlab

    imported = _imports(wverif.synthlab)
    scoring = {
        (module, name)
        for module, name in imported
        if "scores" in (module or "") or "scores" in (name or "") or module == "kernels"
    }
    assert scoring == {
        ("uniscores", "_parametric_score"),
        ("uniscores", "_tnorm_crps"),
        ("kernels", "_mv_kernel"),
    }
    kernels = {
        "_CdfGrid", "_twcrps_normal", "_energy", "_energy_scores", "_variogram_scores", "_closed_form"
    }
    assert not kernels & {name for _, name in imported}


# What each scoring module imports from the kernel-score engine: the
# dispatch point, and for uniscores the re-scaling formula that its
# parametric vrCRPS shares with the ensemble scores.
_ENGINE_IMPORTS = {
    "archive": {"_mv_kernel"},
    "mvscores": {"_mv_kernel"},
    "synthlab": {"_mv_kernel"},
    "uniscores": {"_mv_kernel", "_vertical"},
}


@pytest.mark.parametrize("name", sorted(_ENGINE_IMPORTS))
def test_ensemble_kernels_are_reached_only_through_the_dispatcher(name):
    imported = _imports(importlib.import_module(f"wverif.{name}"))
    assert {n for module, n in imported if module == "kernels"} == _ENGINE_IMPORTS[name]
    # None of the engine's helpers is imported under its own name either.
    helpers = {"_pair_sum", "_increments", "_outcome_weights", "_member_weights", "_norm"}
    assert not helpers & {n for _, n in imported}


def test_archive_scores_smoothed_records_only_through_the_parametric_route():
    """archive's smoothed records are one column of normals scored by
    ``_parametric_score``; it imports none of the closed forms or the
    tabulated-cdf engine behind it."""
    from wverif import uniscores

    imported = {n for module, n in _imports(importlib.import_module("wverif.archive")) if module == "uniscores"}
    assert "_parametric_score" in imported
    behind = {n for n in vars(uniscores) if "normal" in n} | {"_CdfGrid", "_closed_form", "_tnorm_crps"}
    assert "_twcrps_normal" in behind
    assert not imported & behind


@pytest.mark.parametrize("name", ["cli", "synthlab"])
def test_no_special_function_is_called_outside_forecasts(name):
    """cli and synthlab take cdfs, survival functions and quantiles from
    the forecast classes, not from scipy.special arithmetic of their own."""
    imported = _imports(importlib.import_module(f"wverif.{name}"))
    specials = {"ndtr", "ndtri", "expit", "logit", "log1p", "stdtr", "stdtrit", "poch"}
    assert not specials & {n for module, n in imported if module == "forecasts"}
    assert not [module for module, _ in imported if module and module.startswith("scipy")]


def test_only_the_engine_defines_the_kernel_helpers():
    """The pair sums, the increments and the re-scaling and outcome
    weightings are written once, in ``kernels``, and the per-family
    kernels they replaced are gone."""
    import wverif

    helpers = {"_pair_sum", "_increments", "_vertical", "_outcome_weights"}
    replaced = {
        "_crps_ensembles", "_vrcrps_ensembles", "_ensemble_kernel", "_energy_scores", "_variogram_scores"
    }
    defined = {}
    for path in sorted(Path(wverif.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in helpers | replaced:
                defined.setdefault(node.name, []).append(path.stem)
    assert defined == {name: ["kernels"] for name in helpers}


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


def test_propriety_mc_scores_each_side_in_one_distance_pass(monkeypatch):
    """The five multivariate scores of a pair side share one pass over the
    member distances: one pair-sum call per block of draws of each side,
    carrying the es, twes and vres weight rows, instead of one call per
    score."""
    from wverif import kernels

    pair_sum, rows = kernels._pair_sum, []

    def counted(x, weights):
        rows.append(len(weights))
        return pair_sum(x, weights)

    monkeypatch.setattr(kernels, "_pair_sum", counted)
    run_propriety_mc(scores=_MV_SCORES, n_pairs=2, n_mv=300, m_members=12, seed=5)
    assert rows == [3, 3, 3, 3]
    # Two blocks of draws per side: one call per block, still three rows.
    rows.clear()
    run_propriety_mc(
        scores=_MV_SCORES, n_pairs=2, n_mv=synthlab._DRAW_BLOCK + 88, m_members=12, seed=5
    )
    assert rows == [3] * 8


def test_propriety_mc_blocks_equal_whole_stacks():
    """Drawing and scoring the members a block of cases at a time gives,
    bit for bit, the rows of drawing each side's whole stack from the
    same generator and scoring it in one kernel call."""
    n, m, d, seed = 2 * synthlab._DRAW_BLOCK + 76, 12, 3, 5
    want = {s: [] for s in _MV_SCORES}
    for i in range(3):
        rng = np.random.default_rng((seed, 202, i))
        pg, pf, desc = synthlab._mv_pair(rng, i, d)
        ys = synthlab._mv_sample(rng, pg, n, 1, d)[:, 0, :]
        xg = synthlab._mv_sample(rng, pg, n, m, d)
        xf = synthlab._mv_sample(rng, pf, n, m, d)
        mu, sd, _ = pg
        q = mu - 0.5 * sd
        box = BoxIndicator(q, np.full(d, np.inf))
        weights = {s: MvGaussCdf(q, sd) if s == "vres" else box for s in _MV_SCORES}
        kernel = _mv_kernel(weights, q, 0.5, np.ones((d, d)))
        a, b = kernel(xg, ys), kernel(xf, ys)
        for s in _MV_SCORES:
            want[s].append(synthlab._propriety_row(s, desc, a[s], b[s]))
    got = run_propriety_mc(scores=_MV_SCORES, n_pairs=3, n_mv=n, m_members=m, seed=seed)
    assert got == [r for s in _MV_SCORES for r in want[s]]


def test_propriety_mc_memory_does_not_grow_with_the_draws():
    """The multivariate harness holds one block of members per side, so
    its traced peak grows with n only by the observations and the score
    values: well under 2 MiB from 1,024 to 8,192 cases."""
    # A first run loads what the weights import on first use.
    run_propriety_mc(scores=_MV_SCORES, n_pairs=1, n_mv=2, m_members=50)
    peaks = []
    for n in (1024, 8192):
        tracemalloc.start()
        try:
            run_propriety_mc(scores=_MV_SCORES, n_pairs=1, n_mv=n, m_members=50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < 2 * 2**20, peaks


def test_propriety_mc_rejects_unknown_score():
    with pytest.raises(ContractViolation):
        run_propriety_mc(scores=["nope"], n_pairs=2)


@pytest.mark.parametrize(
    "run, kwargs",
    [
        (run_ideal_forecaster, dict(n=2000.0)),
        (run_ideal_forecaster, dict(n=True)),
        (run_tail_forecasters, dict(n=1)),
        (run_impropriety_demo, dict(n=np.int64(1))),
        (run_impropriety_demo, dict(t=np.nan)),
        (run_propriety_mc, dict(n_pairs=0)),
        (run_propriety_mc, dict(n_uni=1)),
        (run_propriety_mc, dict(n_mv=False)),
        (run_propriety_mc, dict(m_members=0)),
        (run_score_curves, dict(x0=-np.inf)),
    ],
)
def test_experiments_refuse_sizes_and_levels_they_cannot_use(run, kwargs):
    with pytest.raises(ContractViolation, match=f"^{next(iter(kwargs))} must be"):
        run(**kwargs)


def test_impropriety_demo_reduced():
    res = run_impropriety_demo(n=30000, seed=11)
    assert res.naive_prefers_truncated
    assert res.tw_prefers_truth
    assert res.naive_trunc < res.naive_truth
    assert res.tw_truth < res.tw_trunc
    with pytest.raises(WeightedMassZero, match="no forecast mass above 7.2"):
        run_impropriety_demo(t=7.2)


def _impropriety_means_mp(t, ys):
    """The four means of ``run_impropriety_demo`` in 40-digit mpmath, each
    score the integral of its squared cdf gap over the weighted region."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        t = mpmath.mpf(t)
        q = lambda u: mpmath.erfc(u / mpmath.sqrt(2)) / 2  # noqa: E731
        p = q(t)

        def gap(sf, lo, y):
            # Integral over (lo, inf) of (F(u) - 1{y <= u})^2 with F = 1 - sf.
            y = max(y, lo)
            return mpmath.quad(lambda u: (1 - sf(u)) ** 2, [lo, y]) + mpmath.quad(
                lambda u: sf(u) ** 2, [y, mpmath.inf]
            )

        crps = lambda y: gap(q, -mpmath.inf, y)  # noqa: E731
        trunc = lambda y: gap(lambda u: q(u) / p, t, y)  # noqa: E731
        above = [mpmath.mpf(y) for y in ys if y > t]
        below = len(ys) - len(above)
        n = len(ys)
        return {
            "naive_truth": float(sum(crps(y) for y in above) / n),
            "naive_trunc": float(sum(trunc(y) for y in above) / n),
            "tw_truth": float((below * gap(q, t, t) + sum(gap(q, t, y) for y in above)) / n),
            "tw_trunc": float((below * trunc(t) + sum(trunc(y) for y in above)) / n),
        }


def test_impropriety_demo_matches_mpmath_far_in_the_tail():
    """At t = 6.5 the truncated forecast lies beyond the 1e-12 quantile of
    the untruncated normal, where a grid spanning that normal's support
    has no nodes left; the closed form keeps its accuracy there."""
    res = run_impropriety_demo(t=6.5, n=2000)
    ys = Normal(0.0, 1.0).sample(2000, _rng(res.seed))
    for name, want in _impropriety_means_mp(6.5, ys).items():
        assert getattr(res, name) == pytest.approx(want, rel=1e-10, abs=0.0), name


def test_run_experiment_dispatch():
    res = run_experiment(
        ExperimentSpec("ideal_forecaster", {"n": 2000}, seed=42)
    )
    assert res.seed == 42
    assert res.n == 2000
    with pytest.raises(ContractViolation):
        run_experiment(ExperimentSpec("not_an_experiment"))
