import math

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri
from hypothesis import given, settings
from hypothesis import strategies as st

from stylfacts.errors import DegenerateInputError, InsufficientDataError
from stylfacts.stats import (acf, adf_test, anderson_darling_normal,
                             autocovariance, cross_correlation, edf_exceedance,
                             ks_test_normal, pearson_corr, qq_data)


def naive_acf(x, max_lag):
    x = np.asarray(x, dtype=float)
    n = len(x)
    m = x.mean()
    c0 = sum((v - m) ** 2 for v in x) / (n - 1)
    out = []
    for lag in range(1, max_lag + 1):
        c = sum((x[t] - m) * (x[t + lag] - m) for t in range(n - lag)) / (n - 1)
        out.append(c / c0)
    return np.array(out)


def naive_ccf(x, y, lag):
    if lag >= 0:
        a, b = x[: len(x) - lag], y[lag:]
    else:
        a, b = x[-lag:], y[: len(y) + lag]
    return float(np.corrcoef(a, b)[0, 1])


class TestAcf:
    def test_matches_naive_to_1e12(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(1000)
        got = acf(x, 20)
        np.testing.assert_allclose(got.values, naive_acf(x, 20), atol=1e-12, rtol=0)

    def test_lag_zero_autocovariance_is_variance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(500)
        cov = autocovariance(x, 5)
        assert cov[0] == pytest.approx(np.var(x, ddof=1), rel=1e-12)

    def test_bartlett_se(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(400)
        a = acf(x, 10)
        assert a.se[0] == pytest.approx(1 / math.sqrt(400))
        want = math.sqrt((1 + 2 * a.values[0] ** 2) / 400)
        assert a.se[1] == pytest.approx(want)
        assert np.all(np.diff(a.se) >= 0)

    def test_ar1_acf_decays_geometrically(self):
        rng = np.random.default_rng(3)
        n, phi = 200_000, 0.7
        x = np.empty(n)
        x[0] = 0.0
        eps = rng.standard_normal(n)
        for t in range(1, n):
            x[t] = phi * x[t - 1] + eps[t]
        a = acf(x, 5)
        np.testing.assert_allclose(a.values, phi ** np.arange(1, 6), atol=0.02)

    def test_constant_raises(self):
        with pytest.raises(DegenerateInputError):
            acf(np.ones(100), 5)

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            acf(np.arange(10.0), 10)


class TestCrossCorrelation:
    def test_matches_naive_both_signs(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        cc = cross_correlation(x, y, 7)
        for i, lag in enumerate(cc.lags):
            assert cc.values[i] == pytest.approx(naive_ccf(x, y, lag), abs=1e-12)

    def test_lag_convention(self):
        # y is x delayed by 3 steps, so Corr(x_t, y_{t+3}) = 1
        rng = np.random.default_rng(5)
        x = rng.standard_normal(500)
        y = np.roll(x, 3)
        cc = cross_correlation(x[10:-10], y[10:-10], 5)
        peak = cc.lags[np.argmax(cc.values)]
        assert peak == 3
        assert cc.values[cc.lags == 3][0] > 0.99

    def test_antisymmetric_roles(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(200)
        y = rng.standard_normal(200)
        ab = cross_correlation(x, y, 4)
        ba = cross_correlation(y, x, 4)
        np.testing.assert_allclose(ab.values, ba.values[::-1], atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            cross_correlation(np.arange(10.0), np.arange(9.0), 2)


class TestPearson:
    def test_matches_scipy(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(100)
        y = 0.5 * x + rng.standard_normal(100)
        got = pearson_corr(x, y)
        want = scipy.stats.pearsonr(x, y)
        assert got.value == pytest.approx(want.statistic, rel=1e-12)

    def test_ci_covers_r(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(50)
        y = rng.standard_normal(50)
        res = pearson_corr(x, y)
        lo, hi = res.ci95
        assert lo < res.value < hi

    def test_perfect_correlation(self):
        x = np.arange(20.0)
        res = pearson_corr(x, 3.0 * x + 1.0)
        assert res.value == pytest.approx(1.0)

    def test_degenerate(self):
        with pytest.raises(DegenerateInputError):
            pearson_corr(np.ones(10), np.arange(10.0))


class TestNormalityTests:
    def test_ks_matches_scipy_statistic(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(500)
        z = (x - x.mean()) / x.std(ddof=1)
        got = ks_test_normal(x)
        want = scipy.stats.kstest(z, "norm")
        assert got.statistic == pytest.approx(want.statistic, rel=1e-10)

    def test_ad_matches_scipy_statistic(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal(500)
        got = anderson_darling_normal(x)
        want = scipy.stats.anderson(x, "norm")
        assert got.statistic == pytest.approx(want.statistic, rel=1e-8)

    def test_normal_usually_accepted_heavy_rejected(self):
        rng = np.random.default_rng(11)
        gaussian = rng.standard_normal(2000)
        heavy = rng.standard_t(2, 2000)
        assert not anderson_darling_normal(gaussian).reject["1%"]
        assert anderson_darling_normal(heavy).reject["1%"]
        assert not ks_test_normal(gaussian).reject["1%"]
        assert ks_test_normal(heavy).reject["1%"]

    def test_ad_finite_sample_correction_direction(self):
        # corrected thresholds sit below the asymptotic values
        rng = np.random.default_rng(12)
        res = anderson_darling_normal(rng.standard_normal(100))
        assert res.critical_values["5%"] < 0.787

    def test_rejection_monotone_in_level(self):
        rng = np.random.default_rng(13)
        x = np.concatenate((rng.standard_normal(300), [8.0, -9.0, 11.0]))
        res = anderson_darling_normal(x)
        if res.reject["5%"]:
            assert res.reject["10%"]

    def test_short_input(self):
        with pytest.raises(InsufficientDataError):
            ks_test_normal(np.arange(5.0))
        with pytest.raises(InsufficientDataError):
            anderson_darling_normal(np.arange(5.0))


class TestEdf:
    def test_exceedance_definition(self):
        x, p = edf_exceedance([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(x, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(p, [2 / 3, 1 / 3, 0.0])


class TestAdf:
    def test_white_noise_is_stationary(self):
        rng = np.random.default_rng(14)
        res = adf_test(rng.standard_normal(1000))
        assert res.reject["5%"]
        assert res.statistic < -10

    def test_random_walk_is_not(self):
        rng = np.random.default_rng(15)
        res = adf_test(np.cumsum(rng.standard_normal(1000)))
        assert not res.reject["5%"]

    def test_matches_brute_force_at_selected_lag(self):
        # Brute-force t-statistic at the lag the AIC search picked, on the
        # sample that drops the first `lag` differences (as statsmodels'
        # adfuller with autolag=None does).  By Frisch-Waugh-Lovell the
        # coefficient on x[t] and its standard error come from regressing
        # both dy[t] and x[t] on the other columns and pairing the residuals.
        rng = np.random.default_rng(16)
        x = np.cumsum(rng.standard_normal(500)) + 0.3 * rng.standard_normal(500)
        got = adf_test(x)
        p = got.lag
        assert p > 0
        dy = np.diff(x)
        rows = np.arange(p, len(dy))
        y = dy[rows]
        others = np.column_stack([np.ones(len(rows))] + [dy[rows - j] for j in range(1, p + 1)])

        def resid(v):
            return v - others @ np.linalg.lstsq(others, v, rcond=None)[0]

        ry, rx = resid(y), resid(x[rows])
        rho = np.dot(rx, ry) / np.dot(rx, rx)
        s2 = np.sum((ry - rho * rx) ** 2) / (len(rows) - 2 - p)
        want_stat = rho / math.sqrt(s2 / np.dot(rx, rx))
        assert got.statistic == pytest.approx(want_stat, rel=1e-9)

    def test_zero_lag_matches_closed_form(self):
        # closed-form Dickey-Fuller t-statistic of dy[t] = c + rho x[t] + e
        rng = np.random.default_rng(26)
        x = np.cumsum(rng.standard_normal(400))
        got = adf_test(x, max_lag=0)
        dy, xl = np.diff(x), x[:-1]
        n = len(dy)
        sxx = np.sum((xl - xl.mean()) ** 2)
        rho = np.sum((xl - xl.mean()) * (dy - dy.mean())) / sxx
        resid = dy - dy.mean() - rho * (xl - xl.mean())
        want_stat = rho / math.sqrt(np.sum(resid ** 2) / (n - 2) / sxx)
        assert got.lag == 0
        assert got.statistic == pytest.approx(want_stat, rel=1e-9)

    def test_aic_lag_matches_full_refit_scan(self):
        # the Gram-matrix shortcut must pick the same lag as brute force
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.standard_normal(300))
        got = adf_test(x)
        n = len(x)
        pmax = min(int(12 * (n / 100.0) ** 0.25), (n - 1) // 2 - 2)
        dy = np.diff(x)
        best = None
        for p in range(pmax + 1):
            rows = np.arange(pmax, n - 1)
            X = np.column_stack([np.ones(len(rows)), x[rows]]
                                + [dy[rows - j] for j in range(1, p + 1)])
            beta, *_ = np.linalg.lstsq(X, dy[rows], rcond=None)
            ssr = float(np.sum((dy[rows] - X @ beta) ** 2))
            aic = len(rows) * math.log(ssr / len(rows)) + 2 * (2 + p)
            if best is None or aic < best[0]:
                best = (aic, p)
        assert got.lag == best[1]

    def test_critical_values_near_tabulated(self):
        rng = np.random.default_rng(18)
        res = adf_test(rng.standard_normal(10_000))
        assert res.critical_values["5%"] == pytest.approx(-2.86, abs=0.02)
        assert res.critical_values["1%"] == pytest.approx(-3.43, abs=0.03)

    def test_short_or_constant(self):
        with pytest.raises(InsufficientDataError):
            adf_test(np.arange(10.0))
        with pytest.raises(DegenerateInputError):
            adf_test(np.ones(100))


class TestQq:
    def test_affine_image_of_grid_sits_on_diagonal(self):
        # the documented exactness condition: data affine in the normalized
        # plotting-position grid
        n = 200
        z = ndtri((np.arange(1, n + 1) - 0.5) / n)
        z = (z - z.mean()) / z.std(ddof=1)
        data = 5.0 + 2.0 * z
        qq = qq_data(data)
        np.testing.assert_allclose(qq.theoretical, qq.empirical, atol=1e-10)

    def test_sorted_lengths(self):
        rng = np.random.default_rng(20)
        qq = qq_data(rng.standard_normal(101))
        assert len(qq.theoretical) == len(qq.empirical) == 101
        assert np.all(np.diff(qq.theoretical) > 0)
        assert np.all(np.diff(qq.empirical) >= 0)


@given(st.lists(st.floats(-1e3, 1e3), min_size=30, max_size=120),
       st.integers(1, 5))
@settings(max_examples=30, deadline=None)
def test_acf_bounded_property(values, max_lag):
    x = np.asarray(values)
    if np.ptp(x) == 0.0 or len(x) <= max_lag + 1:
        return
    try:
        a = acf(x, max_lag)
    except DegenerateInputError:
        return
    # sample autocorrelations with the common denominator are bounded by 1
    assert np.all(np.abs(a.values) <= 1.0 + 1e-12)
