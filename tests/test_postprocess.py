import datetime
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy import optimize
from scipy.special import ndtri

from wverif import postprocess
from wverif import (
    ContractViolation,
    Ensemble,
    EmosParams,
    InsufficientData,
    MvEnsemble,
    Normal,
    StationMeta,
    TrainingWindow,
    crps,
    crps_ensemble,
    ecc_reorder,
    fit_climatology,
    fit_emos,
    lapse_rate_correct,
    predict_emos,
    smooth_ensemble,
)

from emos_oracle import fit_emos_oracle


def test_lapse_rate_correction():
    # model cell 1000 m above the station: forecasts warmed by 6 degrees
    assert lapse_rate_correct(10.0, 1500.0, 500.0) == pytest.approx(16.0)
    assert lapse_rate_correct(10.0, 500.0, 1500.0) == pytest.approx(4.0)
    out = lapse_rate_correct(np.array([10.0, 12.0]), 800.0, 300.0)
    assert_allclose(out, [13.0, 15.0])


def test_smooth_ensemble_moments():
    f = smooth_ensemble(Ensemble(np.array([0.0, 0.0, 2.0, 2.0])))
    assert f.mean() == pytest.approx(1.0)
    assert f.variance() == pytest.approx(4.0 / 3.0)
    with pytest.raises(ContractViolation):
        smooth_ensemble(Ensemble(np.array([1.0])))


def test_smooth_ensemble_floors_variance():
    f = smooth_ensemble(Ensemble(np.array([2.0, 2.0, 2.0])))
    assert f.variance() > 0.0


def test_fit_climatology():
    obs = np.tile([1.0, -1.0], 15)
    f = fit_climatology(obs)
    assert f.mean() == pytest.approx(0.0)
    assert f.variance() == pytest.approx(30.0 / 29.0)
    with pytest.raises(InsufficientData):
        fit_climatology(np.arange(9, dtype=float))


def test_training_window_eviction():
    w = TrainingWindow(capacity_days=45)
    meta = StationMeta("S1")
    start = datetime.date(2021, 1, 1)
    for k in range(50):
        w.add_case(start + datetime.timedelta(days=k), 1.0, 0.5, meta, 1.2)
    assert w.distinct_days == 45
    assert min(w.dates) == start + datetime.timedelta(days=5)


def test_training_window_keeps_all_stations_of_a_day():
    w = TrainingWindow(capacity_days=2)
    d = datetime.date(2021, 1, 1)
    for sid in ("A", "B", "C"):
        w.add_case(d, 1.0, 0.5, StationMeta(sid), 1.0)
    w.add_case(d + datetime.timedelta(days=1), 1.0, 0.5, StationMeta("A"), 1.0)
    assert w.size == 4
    w.add_case(d + datetime.timedelta(days=2), 1.0, 0.5, StationMeta("A"), 1.0)
    assert w.size == 2
    assert w.distinct_days == 2


def test_training_window_requires_date_order():
    w = TrainingWindow()
    w.add_case(datetime.date(2021, 1, 2), 1.0, 0.5, StationMeta("A"), 1.0)
    with pytest.raises(ContractViolation):
        w.add_case(datetime.date(2021, 1, 1), 1.0, 0.5, StationMeta("A"), 1.0)


def test_emos_params_validation_and_round_trip():
    p = EmosParams(
        beta=(0.1, 0.9, 0.0, 0.0), sigma0=0.5, sigma1=0.8, n_iter=12, objective=0.42
    )
    q = EmosParams.from_dict(json.loads(json.dumps(p.to_dict())))
    assert q == p
    with pytest.raises(ContractViolation):
        EmosParams(beta=(0.0, 1.0), sigma0=0.5, sigma1=0.5)
    with pytest.raises(ContractViolation):
        EmosParams(beta=(0.0, 1.0, 0.0, 0.0), sigma0=0.0, sigma1=0.5)


def _synthetic_training(rng, n, beta, sigma0, sigma1):
    """Training draws with two dispersion regimes.

    Calm cases carry almost no ensemble variance and pin sigma0; the
    volatile half pins sigma1.  A single mid-range regime would leave
    the two coefficients nearly collinear at this sample size.
    """
    xbar = rng.uniform(-10.0, 10.0, n)
    calm = rng.random(n) < 0.5
    var = np.where(
        calm,
        np.exp(rng.uniform(np.log(0.01), np.log(0.05), n)),
        np.exp(rng.uniform(np.log(3.0), np.log(10.0), n)),
    )
    mhd = rng.normal(0.0, 1.0, n)
    tpi = rng.normal(0.0, 1.0, n)
    mu = beta[0] + beta[1] * xbar + beta[2] * mhd + beta[3] * tpi
    y = rng.normal(mu, np.sqrt(sigma0 + sigma1 * var))
    return xbar, var, mhd, tpi, y


def test_fit_emos_recovers_parameters():
    rng = np.random.default_rng(314)
    beta = (1.0, 0.9, 0.5, -0.3)
    sigma0, sigma1 = 0.8, 0.4
    data = _synthetic_training(rng, 2000, beta, sigma0, sigma1)
    params = fit_emos(data)
    assert params.converged
    for got, want in zip(params.beta, beta):
        assert abs(got - want) < 0.1
    assert abs(params.sigma0 - sigma0) / sigma0 < 0.2
    assert abs(params.sigma1 - sigma1) / sigma1 < 0.2


def test_fit_emos_objective_history_descends():
    rng = np.random.default_rng(7)
    data = _synthetic_training(rng, 300, (0.5, 1.1, 0.0, 0.0), 0.6, 0.5)
    history = []
    fit_emos(data, history=history)
    assert len(history) >= 2
    assert np.all(np.diff(history) <= 1e-9)


def test_fit_emos_warm_start():
    rng = np.random.default_rng(8)
    data = _synthetic_training(rng, 400, (0.5, 1.1, 0.2, -0.1), 0.6, 0.5)
    cold = fit_emos(data)
    warm = fit_emos(data, init=cold)
    assert warm.n_iter <= cold.n_iter
    assert warm.objective <= cold.objective + 1e-10


def test_fit_emos_needs_enough_cases():
    with pytest.raises(InsufficientData):
        fit_emos((np.ones(5), np.ones(5), np.zeros(5), np.zeros(5), np.ones(5)))


def test_predict_emos_formulas():
    p = EmosParams(beta=(1.0, 2.0, 0.5, -1.0), sigma0=0.3, sigma1=2.0)
    meta = StationMeta("X", mhd=4.0, tpi=1.0)
    f = predict_emos(p, 3.0, 0.25, meta)
    assert f.mean() == pytest.approx(1.0 + 6.0 + 2.0 - 1.0)
    assert f.variance() == pytest.approx(0.3 + 0.5)
    with pytest.raises(ContractViolation):
        predict_emos(p, 3.0, -0.1, meta)


def test_emos_beats_biased_underdispersed_ensemble():
    """Truth: y ~ N(xbar + 1, 2^2); the raw ensemble spreads only 0.5
    around xbar, so it is biased and badly underdispersed."""
    rng = np.random.default_rng(2718)
    n_train, n_test, m = 2000, 500, 21
    xbar = rng.uniform(5.0, 25.0, n_train + n_test)
    y = rng.normal(xbar + 1.0, 2.0)
    members = rng.normal(xbar[:, None], 0.5, (n_train + n_test, m))
    mtrain = slice(0, n_train)
    params = fit_emos(
        (
            members[mtrain].mean(axis=1),
            members[mtrain].var(axis=1, ddof=1),
            np.zeros(n_train),
            np.zeros(n_train),
            y[mtrain],
        )
    )
    raw_scores = []
    emos_scores = []
    meta = StationMeta("S")
    for k in range(n_train, n_train + n_test):
        raw_scores.append(crps_ensemble(Ensemble(members[k]), y[k]).value)
        f = predict_emos(
            params, members[k].mean(), members[k].var(ddof=1), meta
        )
        emos_scores.append(crps(f, y[k]).value)
    assert np.mean(emos_scores) < np.mean(raw_scores)
    # with this bias and dispersion error the gap is not marginal
    assert np.mean(emos_scores) < 0.75 * np.mean(raw_scores)


def test_ecc_reorder_exact_quantiles_and_ranks():
    margins = [Normal(0.0, 1.0), Normal(5.0, 4.0), Normal(-2.0, 0.25)]
    raw = MvEnsemble(
        np.array(
            [
                [3.0, 1.0, 2.0],
                [0.1, 0.3, 0.2],
                [-1.0, 5.0, 2.0],
            ]
        )
    )
    out = ecc_reorder(margins, raw)
    levels = np.array([1.0, 3.0, 5.0]) / 6.0
    for i, mg in enumerate(margins):
        want_sorted = np.asarray(mg.ppf(levels))
        assert_allclose(np.sort(out.members[i]), want_sorted, rtol=0, atol=0)
        assert_allclose(
            np.argsort(np.argsort(out.members[i])),
            np.argsort(np.argsort(raw.members[i])),
        )


def test_ecc_reorder_ties_broken_by_member_index():
    margins = [Normal(0.0, 1.0)]
    raw = MvEnsemble(np.array([[1.0, 1.0, 0.0]]))
    out = ecc_reorder(margins, raw)
    q = Normal(0.0, 1.0).ppf(np.array([1.0, 3.0, 5.0]) / 6.0)
    assert_allclose(out.members[0], [q[1], q[2], q[0]])


def test_ecc_reorder_validation():
    from wverif import DimensionMismatch

    with pytest.raises(DimensionMismatch):
        ecc_reorder([Normal(0.0, 1.0)], MvEnsemble(np.zeros((2, 3))))
    with pytest.raises(ContractViolation):
        ecc_reorder([object()], MvEnsemble(np.zeros((1, 3))))


def test_ecc_output_scores_against_truth():
    """Sanity run of the full chain: smooth margins, reorder, and check
    the coupled ensemble beats an independence coupling on the energy
    score when the truth is strongly correlated."""
    from wverif import energy_score

    rng = np.random.default_rng(99)
    d, m, n = 3, 21, 200
    rho = 0.85
    cov = (1.0 - rho) * np.eye(d) + rho * np.ones((d, d))
    chol = np.linalg.cholesky(cov)
    es_ecc = []
    es_ind = []
    for _ in range(n):
        y = chol @ rng.standard_normal(d)
        raw = (rng.standard_normal((m, d)) @ chol.T).T
        margins = [smooth_ensemble(Ensemble(raw[i])) for i in range(d)]
        coupled = ecc_reorder(margins, MvEnsemble(raw))
        es_ecc.append(energy_score(coupled, y).value)
        shuffled = np.stack([rng.permutation(coupled.members[i]) for i in range(d)])
        es_ind.append(energy_score(MvEnsemble(shuffled), y).value)
    assert np.mean(es_ecc) < np.mean(es_ind)


# ---------------------------------------------------------------------------
# damped Newton fit against the L-BFGS-B oracle
# ---------------------------------------------------------------------------


def _lbfgsb_fit(data, init=None):
    """L-BFGS-B on the same objective and gradient, with the tolerances
    fit_emos once used: the oracle for the Newton fit."""
    xbar, var, mhd, tpi, y = (np.asarray(a, dtype=float) for a in data)
    X = postprocess._design(xbar, mhd, tpi)
    theta0 = (
        postprocess._INIT_THETA
        if init is None
        else np.r_[init.beta, np.log([init.sigma0, init.sigma1])]
    )
    return optimize.minimize(
        lambda th: postprocess._objective_grad_hess(th, X, var, y)[:2],
        theta0,
        jac=True,
        method="L-BFGS-B",
        options={"maxiter": 500, "gtol": 1e-6, "ftol": 1e-14},
    )


def _calibrate_stream(rng, days, stations=10, m=21):
    """(days, stations) arrays shaped like perfbench's calibrate archive: a
    raw ensemble biased warm by 1.5 with spread 0.5 against an error of
    1.5, and fixed station descriptors."""
    shift = rng.uniform(-1.0, 1.0, stations)
    mhd = np.broadcast_to(rng.uniform(-300.0, 300.0, stations), (days, stations))
    tpi = np.broadcast_to(rng.uniform(-50.0, 50.0, stations), (days, stations))
    truth = 24.0 + shift + rng.normal(0.0, 2.5, (days, stations))
    centre = truth + 1.5 + rng.normal(0.0, 1.5, (days, stations))
    members = centre[..., None] + 0.5 * rng.standard_normal((days, stations, m))
    return members.mean(axis=-1), members.var(axis=-1, ddof=1), mhd, tpi, truth


def _days(stream, first, last):
    return tuple(np.ravel(a[first:last]) for a in stream)


def _zero_variance_window():
    rng = np.random.default_rng(5)
    xbar = rng.uniform(-5.0, 5.0, 200)
    y = 0.3 + 0.9 * xbar + rng.normal(0.0, 1.0, 200)
    return xbar, np.zeros(200), rng.normal(size=200), rng.normal(size=200), y


def _floored_window():
    """Half the cases carry no ensemble variance and are predicted exactly,
    so the fit drives sigma0 below VARIANCE_FLOOR for them."""
    rng = np.random.default_rng(6)
    n = 200
    xbar = rng.uniform(-5.0, 5.0, n)
    calm = np.arange(n) < n // 2
    var = np.where(calm, 0.0, rng.uniform(1.0, 5.0, n))
    mhd, tpi = rng.normal(size=n), rng.normal(size=n)
    y = 0.5 + 1.1 * xbar + 0.2 * mhd + np.where(calm, 0.0, rng.normal(0.0, np.sqrt(0.8 * var)))
    return xbar, var, mhd, tpi, y


def _oracle_cases():
    """(id, window, init) triples: cold starts on two-regime windows of
    several sizes, cold and warm starts on 300-case calibrate-shaped
    windows (warm from the fit to the window a day earlier), one far
    off the starting point, a window with every variance 0 and one that
    reaches the variance floor."""
    cases = []
    for seed, n in enumerate((30, 60, 100, 300, 300, 1000)):
        data = _synthetic_training(np.random.default_rng(40 + seed), n, (0.5, 1.1, 0.2, -0.1), 0.6, 0.5)
        cases.append((f"two-regime-{n}-{seed}", data, None))
    for seed in range(6):
        stream = _calibrate_stream(np.random.default_rng(60 + seed), 31)
        earlier = _days(stream, 0, 30)
        cases.append((f"calibrate-cold-{seed}", earlier, None))
        cases.append((f"calibrate-warm-{seed}", _days(stream, 1, 31), fit_emos(earlier)))
    # observations in kelvin against forecasts in degrees C: at the start
    # every phi(z) underflows, so the beta block of the Hessian is 0
    xbar, var, mhd, tpi, y = _days(_calibrate_stream(np.random.default_rng(66), 30), 0, 30)
    cases.append(("kelvin-offset", (xbar, var, mhd, tpi, y + 273.15), None))
    cases.append(("zero-variance", _zero_variance_window(), None))
    cases.append(("variance-floor", _floored_window(), None))
    return cases


_ORACLE_CASES = _oracle_cases()


@pytest.mark.parametrize("data, init", [c[1:] for c in _ORACLE_CASES], ids=[c[0] for c in _ORACLE_CASES])
def test_newton_fit_is_no_worse_than_the_lbfgsb_oracle(data, init):
    history = []
    got = fit_emos(data, init=init, history=history)
    want = _lbfgsb_fit(data, init=init)
    assert got.converged
    assert got.objective <= want.fun + 1e-9
    assert np.all(np.diff(history) <= 0.0)


def test_oracle_cases_cover_twenty_windows_and_the_variance_floor():
    assert len(_ORACLE_CASES) >= 20
    xbar, var, *_ = _floored_window()
    p = fit_emos(_floored_window())
    assert np.any(p.sigma0 + p.sigma1 * var <= postprocess.VARIANCE_FLOOR)
    assert np.any(p.sigma0 + p.sigma1 * var > postprocess.VARIANCE_FLOOR)


def test_zero_covariate_columns_do_not_slow_the_fit():
    # Without station descriptors mhd and tpi are columns of zeros and the
    # Hessian is singular.  Damping the whole matrix for them held log
    # sigma0 back near the variance floor, and this fit ran to the cap.
    xbar, var, mhd, tpi, y = _floored_window()
    zeros = np.zeros_like(xbar)
    p = fit_emos((xbar, var, zeros, zeros, y - 0.2 * mhd))
    assert p.converged and p.n_iter < 50
    assert p.beta[2] == p.beta[3] == 0.0


def _central_differences(theta, X, var, y, h=1e-7):
    """Central differences of the objective (gradient) and of the
    gradient (Hessian)."""
    grad, hess = np.empty(6), np.empty((6, 6))
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        f_up, g_up, _ = postprocess._objective_grad_hess(theta + e, X, var, y)
        f_down, g_down, _ = postprocess._objective_grad_hess(theta - e, X, var, y)
        grad[j] = (f_up - f_down) / (2.0 * h)
        hess[:, j] = (g_up - g_down) / (2.0 * h)
    return grad, hess


@pytest.mark.parametrize("where", ["start", "optimum", "indefinite", "floored"])
def test_analytic_gradient_and_hessian_match_central_differences(where):
    stream = _calibrate_stream(np.random.default_rng(71), 30)
    data = _days(stream, 0, 30)
    if where == "start":
        theta = postprocess._INIT_THETA.copy()
    elif where == "optimum":
        p = fit_emos(data)
        theta = np.r_[p.beta, np.log([p.sigma0, p.sigma1])]
    elif where == "indefinite":
        # mean off by the raw bias and a spread far too small: most |z| are
        # large, where the sigma-chain term bends the objective downwards
        theta = np.array([0.0, 1.0, 0.0, 0.0, np.log(0.05), np.log(0.05)])
    else:
        # some cases on the floor, the others well clear of it
        data = _floored_window()
        theta = np.array([0.5, 1.1, 0.2, 0.0, np.log(1e-8), np.log(0.8)])
    xbar, var, mhd, tpi, y = data
    X = postprocess._design(xbar, mhd, tpi)
    _, grad, hess = postprocess._objective_grad_hess(theta, X, var, y)
    if where == "indefinite":
        assert np.linalg.eigvalsh(hess)[0] < 0.0
    if where == "floored":
        v = np.exp(theta[4]) + np.exp(theta[5]) * var
        assert np.any(v < postprocess.VARIANCE_FLOOR) and np.all((v < 1e-7) | (v > 1e-2))
    numeric_grad, numeric_hess = _central_differences(theta, X, var, y)
    assert np.max(np.abs(grad - numeric_grad)) <= 1e-6
    assert np.max(np.abs(hess - numeric_hess)) <= 1e-6 * np.max(np.abs(hess))
    # the log-sigma block is orders of magnitude below the beta block
    sig, numeric_sig = hess[4:, 4:], numeric_hess[4:, 4:]
    assert np.max(np.abs(sig - numeric_sig)) <= 1e-6 * np.max(np.abs(sig))


def test_fit_emos_returns_the_last_iterate_at_the_iteration_cap(monkeypatch):
    monkeypatch.setattr(postprocess, "_MAX_ITER", 2)
    data = _synthetic_training(np.random.default_rng(7), 300, (0.5, 1.1, 0.0, 0.0), 0.6, 0.5)
    history = []
    p = fit_emos(data, history=history)
    assert not p.converged
    assert p.n_iter == 2
    assert len(history) == 2
    assert p.objective == history[-1]
    assert np.all(np.diff(history) <= 0.0)


def test_fit_emos_with_a_nan_observation_returns_the_start_unconverged():
    data = list(_synthetic_training(np.random.default_rng(9), 50, (0.5, 1.1, 0.0, 0.0), 0.6, 0.5))
    data[4][3] = np.nan
    p = fit_emos(data)
    assert not p.converged and p.n_iter == 0 and np.isnan(p.objective)


def test_training_window_equals_a_recomputation_over_its_last_days():
    rng = np.random.default_rng(12)
    start = datetime.date(2021, 3, 1)
    w = TrainingWindow(capacity_days=7)
    stream = []
    day = 0
    for _ in range(400):
        day += int(rng.choice([0, 0, 0, 1, 1, 3]))
        sid = f"S{rng.integers(0, 12)}"
        case = (start + datetime.timedelta(days=day), rng.normal(), rng.uniform(0, 2), StationMeta(sid, rng.normal(), rng.normal()), rng.normal())
        stream.append(case)
        w.add_case(*case)
        days = sorted({c[0] for c in stream})[-7:]
        kept = [c for c in stream if c[0] >= days[0]]
        assert w.dates == [c[0] for c in kept]
        assert w.distinct_days == len(days)
        assert_allclose(np.stack(w.arrays()), np.array(
            [[c[1] for c in kept], [c[2] for c in kept], [c[3].mhd for c in kept],
             [c[3].tpi for c in kept], [c[4] for c in kept]]), rtol=0, atol=0)


_finite = st.floats(-1e3, 1e3, allow_nan=False)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(_finite, st.floats(0.0, 50.0), _finite, _finite), min_size=1, max_size=40
    ),
    st.tuples(_finite, _finite, _finite, _finite),
    st.floats(1e-3, 10.0),
    st.floats(1e-3, 10.0),
)
def test_emos_mean_variance_equals_predict_emos_per_record(cases, beta, sigma0, sigma1):
    # The postprocess CLI predicts a day's cases in one call; each must get
    # the bits it gets alone.  A plain matrix-vector product does not.
    params = EmosParams(beta=beta, sigma0=sigma0, sigma1=sigma1)
    xbar, var, mhd, tpi = (np.array(c) for c in zip(*cases))
    mu, v = postprocess.emos_mean_variance(params, xbar, var, mhd, tpi)
    for i, (x, s2, a, b) in enumerate(cases):
        fc = predict_emos(params, x, s2, StationMeta("s", a, b))
        assert (fc.mean_, fc.variance_) == (mu[i], v[i])


@st.composite
def _ecc_stack(draw):
    g, d, m = draw(st.integers(1, 4)), draw(st.integers(1, 3)), draw(st.integers(1, 7))
    # Members on a few integers, so ranks tie often.
    raw = np.array(draw(st.lists(st.integers(-2, 2), min_size=g * d * m, max_size=g * d * m)))
    mean = np.array(draw(st.lists(_finite, min_size=g * d, max_size=g * d)))
    sd = np.array(draw(st.lists(st.floats(1e-3, 1e2), min_size=g * d, max_size=g * d)))
    return raw.reshape(g, d, m).astype(float), mean.reshape(g, d), sd.reshape(g, d)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_ecc_stack())
def test_stacked_ecc_equals_ecc_reorder_per_group(stack):
    raw, mean, sd = stack
    m = raw.shape[-1]
    q = ndtri((np.arange(m) + 0.5) / m) * sd[..., None] + mean[..., None]
    out = postprocess._ecc_place(q, raw)
    for k in range(raw.shape[0]):
        margins = [Normal(mu, s**2) for mu, s in zip(mean[k], sd[k])]
        assert np.array_equal(ecc_reorder(margins, raw[k]).members, out[k])


# ---------------------------------------------------------------------------
# stacked fits against the per-window oracle, bit for bit
# ---------------------------------------------------------------------------


def _fit_bits(p):
    """Everything a fit reports, floats as their bytes, so -0.0 counts.  Every
    NaN counts as one value: numpy adds a NaN to a NaN of the other sign
    into either of them, by the SIMD lane they fall in, which moves when a
    window joins a stack; neither json nor csv text shows the sign."""
    floats = np.array([*p.beta, p.sigma0, p.sigma1, p.objective])
    return np.where(np.isnan(floats), np.nan, floats).tobytes(), p.converged, p.n_iter


def _assert_stack_equals_oracle(windows, inits):
    histories = [[] for _ in windows]
    got = postprocess._fit_chains(windows, inits, histories)
    for window, init, fit, history in zip(windows, inits, got, histories):
        want_history = []
        try:
            want = fit_emos_oracle(window, init, want_history)
        except InsufficientData:
            assert fit is None and history == []
            continue
        assert _fit_bits(fit) == _fit_bits(want)
        assert np.array(history).tobytes() == np.array(want_history).tobytes()
    return got


_KINDS = ("calibrate", "zero-variance", "zero-covariate", "nan-observation", "short", "kelvin")


def _kind_window(kind, n, rng):
    """A calibrate-shaped window of ``n`` cases, altered by ``kind``: every
    variance 0 (a zero Hessian diagonal), a covariate column of zeros, one
    NaN observation (the non-finite stop), under _MIN_CASES cases, or
    observations in kelvin (every phi(z) underflows at the start)."""
    if kind == "short":
        n = int(rng.integers(1, 10))
    xbar, var, mhd, tpi, y = (np.ravel(a).copy() for a in _calibrate_stream(rng, n, stations=1))
    if kind == "zero-variance":
        var[:] = 0.0
    elif kind == "zero-covariate":
        tpi[:] = 0.0
    elif kind == "nan-observation":
        y[rng.integers(n)] = np.nan
    elif kind == "kelvin":
        y += 273.15
    return xbar, var, mhd, tpi, y


@st.composite
def _window_stack(draw):
    windows, inits = [], []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(_KINDS))
        # a few shared lengths, so that stacks hold several windows
        n = draw(st.sampled_from([30, 200]) | st.integers(10, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        windows.append(_kind_window(kind, n, rng))
        warm = EmosParams((-1.0, 1.0, 0.001, -0.01), 1.5, 0.5)
        inits.append(draw(st.sampled_from([None, warm])))
    return windows, inits


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_window_stack())
def test_stacked_fits_equal_the_per_window_oracle_bit_for_bit(stack):
    _assert_stack_equals_oracle(*stack)


def test_stacked_fits_cover_every_kind_of_window():
    # One stack with a window of each kind, all but the short one of one length.
    rng = np.random.default_rng(3)
    windows = [_kind_window(kind, 40, rng) for kind in _KINDS]
    got = _assert_stack_equals_oracle(windows, [None] * len(windows))
    fits = dict(zip(_KINDS, got))
    assert fits["short"] is None
    assert fits["nan-observation"].n_iter == 0 and not fits["nan-observation"].converged
    assert fits["zero-covariate"].beta[3] == 0.0
    assert all(fits[k].converged for k in ("calibrate", "zero-variance", "zero-covariate", "kelvin"))


def test_a_hessian_with_a_zero_diagonal_leaves_the_start_in_a_stack():
    # Every variance 0 and sigma0 far below the floor: no case moves sigma,
    # and 300 degrees off every phi(z) underflows, so the whole diagonal is
    # 0 and the step is 0; the chain beside it fits as it does alone.
    rng = np.random.default_rng(8)
    flat = (rng.uniform(15.0, 25.0, 20), np.zeros(20), rng.normal(size=20), rng.normal(size=20),
            300.0 + rng.normal(size=20))
    start = EmosParams((0.0, 1.0, 0.0, 0.0), 1e-9, 1.0)
    got = _assert_stack_equals_oracle([flat, _kind_window("calibrate", 20, rng)], [start, None])
    assert got[0].n_iter == 0 and not got[0].converged and got[1].converged


def _drifting_window():
    """Twelve calibrate-shaped cases (four stations over three days) whose
    optimum lies on the sigma1 -> 0 boundary: log sigma1 drifts down step
    after step while the gradient test already holds."""
    rng = np.random.default_rng(2722)
    truth = 24.0 + rng.normal(0.0, 2.5, 12)
    centre = truth + 1.5 + rng.normal(0.0, 1.5, 12)
    members = centre[:, None] + 0.5 * rng.standard_normal((12, 21))
    mhd, tpi = np.tile(rng.uniform(-300.0, 300.0, 4), 3), np.tile(rng.uniform(-50.0, 50.0, 4), 3)
    return members.mean(axis=1), members.var(axis=1, ddof=1), mhd, tpi, truth


def test_sigma1_boundary_drift_is_reproduced_among_short_chains():
    # The fit runs to the iteration cap, reported converged, with sigma1
    # near 0; the chains beside it stop within a few rounds.
    rng = np.random.default_rng(4)
    windows = [_drifting_window(), _kind_window("calibrate", 12, rng), _kind_window("calibrate", 30, rng)]
    got = _assert_stack_equals_oracle(windows, [None] * 3)
    drift = got[0]
    assert drift.n_iter == postprocess._MAX_ITER and drift.converged
    assert drift.sigma1 < 1e-6
    assert max(p.n_iter for p in got[1:]) < 50
