"""The oracles against values worked out by hand."""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import oracles  # noqa: E402

# CRPS of N(0, 1) at its mean: 2 phi(0) - 1 / sqrt(pi).
CRPS0_AT_0 = 2.0 / math.sqrt(2.0 * math.pi) - 1.0 / math.sqrt(math.pi)


def test_crps_ensemble_by_hand():
    # [0, 1] at 0.5: mean |x - y| = 0.5, spread (1 / 8) * 2 = 0.25.
    assert oracles.crps_ensemble(np.array([[0.0, 1.0]]), np.array([0.5]))[0] == pytest.approx(0.25)
    # [1, 2, 3] at 2: 2/3 - (1 / 18) * 8 = 2/9.
    assert oracles.crps_ensemble(np.array([[3.0, 1.0, 2.0]]), np.array([2.0]))[0] == pytest.approx(2 / 9)


def test_twcrps_censored_ensemble_by_hand():
    # max(., 2) turns [1, 2, 3] into [2, 2, 3]; at y = 2: 1/3 - 4/18 = 1/9.
    x = np.array([[1.0, 2.0, 3.0]])
    assert oracles.twcrps_censored_ensemble(x, np.array([2.0]), 2.0)[0] == pytest.approx(1 / 9)
    # Everything below t censors to one point: score 0.
    assert oracles.twcrps_censored_ensemble(x, np.array([0.0]), 5.0)[0] == 0.0


def test_brier_ensemble_by_hand():
    x = np.array([[1.0, 2.0, 3.0, 4.0]])
    # F(2.5) = 1/2, y = 3 > 2.5: (1/2 - 0)^2.
    assert oracles.brier_ensemble(x, np.array([3.0]), 2.5)[0] == 0.25
    # y = 1 <= 2.5: (1/2 - 1)^2.
    assert oracles.brier_ensemble(x, np.array([1.0]), 2.5)[0] == 0.25


def test_energy_score_by_hand():
    # Members (0, 0) and (3, 4) at (0, 0): (0 + 5) / 2 - (2 * 5) / 8 = 1.25.
    x = np.array([[[0.0, 3.0], [0.0, 4.0]]])
    assert oracles.energy_score(x, np.array([[0.0, 0.0]]))[0] == pytest.approx(1.25)


def test_variogram_score_by_hand():
    # Members (0, 1) and (0, 4): mean |x_1 - x_2|^0.5 = (1 + 2) / 2; the
    # observation (0, 0) has none, so 2 * 1.5^2 = 4.5.
    x = np.array([[[0.0, 0.0], [1.0, 4.0]]])
    assert oracles.variogram_score(x, np.array([[0.0, 0.0]]))[0] == pytest.approx(4.5)


def test_heat_level_by_hand():
    v = np.array([[20, 21, 22], [25, 20, 26], [25, 26, 27], [27, 28, 27.5]], dtype=float)
    assert oracles.heat_level(v).tolist() == [1, 2, 3, 4]


def test_ranks_by_hand():
    assert oracles.ranks(np.array([[1.0, 3.0, 5.0]]), np.array([4.0]))[0] == 3


def test_normal_crps_by_hand():
    assert oracles.normal_crps(0.0, 1.0, 0.0) == pytest.approx(CRPS0_AT_0)
    # Location-scale: sigma * CRPS_0((y - mu) / sigma).
    assert oracles.normal_crps(3.0, 2.0, 3.0) == pytest.approx(2.0 * CRPS0_AT_0)


def test_twcrps_censored_normal_by_hand():
    # At y = t = mu the censored part is half the CRPS by symmetry:
    # I(0) = 2 phi(0) / 2 - 1 / (2 sqrt(pi)) = CRPS_0(0) / 2.
    assert oracles.twcrps_censored_normal(0.0, 1.0, 0.0, 0.0) == pytest.approx(CRPS0_AT_0 / 2)
    # A threshold far below the forecast changes nothing.
    assert oracles.twcrps_censored_normal(0.0, 1.0, 0.7, -40.0) == pytest.approx(
        oracles.normal_crps(0.0, 1.0, 0.7))


def test_crps_truncated_normal_against_grid_and_limit():
    for mu, sigma, y, t in [(24.0, 1.5, 26.3, 25.0), (20.0, 2.0, 27.0, 25.0), (26.0, 1.0, 25.5, 25.0)]:
        assert oracles.crps_truncated_normal(mu, sigma, y, t) == pytest.approx(
            oracles.crps_truncated_normal_grid(mu, sigma, y, t), abs=1e-8)
    # Truncating far below the mass leaves the plain normal.
    assert oracles.crps_truncated_normal(0.0, 1.0, 0.3, -40.0) == pytest.approx(
        oracles.normal_crps(0.0, 1.0, 0.3))


def test_ecc_by_hand():
    # m = 2: levels 1/4 and 3/4 of N(0, 1) are -/+ 0.6744897501960817.
    q = oracles.ecc_quantiles(0.0, 1.0, 2)
    assert q == pytest.approx([-0.6744897501960817, 0.6744897501960817])
    # The raw member 5 is the larger one, so it takes the upper quantile.
    out = oracles.ecc(np.array([[5.0, 1.0]]), [10.0], [2.0])
    assert out[0] == pytest.approx([10.0 + 2.0 * 0.6744897501960817, 10.0 - 2.0 * 0.6744897501960817])
