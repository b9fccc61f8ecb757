import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from scipy.special import ndtri
from hypothesis import given, settings
from hypothesis import strategies as st

from stylfacts.errors import DegenerateInputError, InsufficientDataError
from stylfacts.stats import (_lag_gram, _lag_sums, acf, adf_test, anderson_darling_normal,
                             autocovariance, cross_correlation, edf_exceedance,
                             ks_test_normal, qq_data)

import _oracles


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


def _adf_design_matrix(x, max_lag=None):
    """The ADF statistic as `adf_test` computed it before it took the chosen
    model from the lag-selection Gram matrix: an uncentred Gram matrix for
    the lag search, then a fresh design matrix at the chosen lag and lstsq.
    Returns (statistic, lag).  Kept as an oracle."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    pmax = int(12 * (n / 100.0) ** 0.25) if max_lag is None else int(max_lag)
    pmax = max(0, min(pmax, (n - 1) // 2 - 2))
    dy = np.diff(x)

    def build(p, offset):
        rows = np.arange(offset, n - 1)
        X = np.empty((len(rows), 2 + p))
        X[:, 0] = 1.0
        X[:, 1] = x[rows]
        for j in range(1, p + 1):
            X[:, 1 + j] = dy[rows - j]
        return X, dy[rows]

    X_all, y_all = build(pmax, pmax)
    G = X_all.T @ X_all
    c = X_all.T @ y_all
    yty = float(np.dot(y_all, y_all))
    best = None
    for p in range(pmax + 1):
        k = 2 + p
        ssr = yty - float(np.dot(np.linalg.solve(G[:k, :k], c[:k]), c[:k]))
        aic = len(y_all) * math.log(ssr / len(y_all)) + 2 * k
        if best is None or aic < best[0]:
            best = (aic, p)
    p = best[1]
    X, y = build(p, p)
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    assert rank == X.shape[1]
    resid = y - X @ beta
    ssr = float(np.dot(resid, resid))
    se = math.sqrt(ssr / (len(y) - X.shape[1]) * np.linalg.inv(X.T @ X)[1, 1])
    return float(beta[1] / se), p


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


def _standardized_sorted(x):
    return np.sort((x - x.mean()) / x.std(ddof=1))


def _ks_statistic_norm(x):
    """KS statistic with the normal CDF from scipy.stats.norm."""
    z = _standardized_sorted(x)
    n = len(z)
    f = scipy.stats.norm.cdf(z)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))


def _ad_statistic_norm(x):
    """A^2 with the log CDF and log survival function from scipy.stats.norm."""
    z = _standardized_sorted(x)
    n = len(z)
    i = np.arange(1, n + 1)
    log_f = scipy.stats.norm.logcdf(z)
    log_sf = scipy.stats.norm.logsf(z)
    return float(-n - np.mean((2 * i - 1) * (log_f + log_sf[::-1])))


def _gof_inputs():
    rng = np.random.default_rng(14)
    outliers = np.concatenate((rng.standard_normal(1000), [60.0, -45.0]))
    return {"normal": rng.standard_normal(500), "student_t2": rng.standard_t(2, 3000),
            "outliers": outliers, "cauchy": rng.standard_cauchy(1000)}


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
        want = scipy.stats.anderson(x, "norm", method="interpolate")
        assert got.statistic == pytest.approx(want.statistic, rel=1e-8)

    @pytest.mark.parametrize("name", list(_gof_inputs()))
    def test_equal_to_scipy_stats_norm(self, name):
        # scipy.special's ndtr and log_ndtr are the functions scipy.stats.norm
        # evaluates, so both statistics are bit-equal to the norm form
        x = _gof_inputs()[name]
        if name in ("outliers", "cauchy"):
            assert np.max(np.abs(_standardized_sorted(x))) > 8.0
        assert ks_test_normal(x).statistic == _ks_statistic_norm(x)
        assert anderson_darling_normal(x).statistic == _ad_statistic_norm(x)

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

    @staticmethod
    def _hard_series(kind):
        rng = np.random.default_rng(27)
        e = rng.standard_normal(2000)
        ar = np.empty(2000)
        ar[0] = e[0]
        phi = 0.5 if kind == "near_constant" else 0.995
        for t in range(1, 2000):
            ar[t] = phi * ar[t - 1] + e[t] + 0.4 * e[t - 1]
        if kind == "near_constant":
            return 1.0 + 1e-5 * ar  # a level far above its own variation
        return 100.0 + ar

    @pytest.mark.parametrize("kind", ["near_constant", "near_unit_root"])
    def test_hard_series_match_brute_force(self, kind):
        # the full refit scan picks the lag, and the Frisch-Waugh-Lovell
        # regression of test_matches_brute_force_at_selected_lag gives the
        # statistic, on series where a Gram matrix loses digits unless the
        # level is centred
        x = self._hard_series(kind)
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
        p = got.lag
        rows = np.arange(p, len(dy))
        y = dy[rows]
        others = np.column_stack([np.ones(len(rows))] + [dy[rows - j] for j in range(1, p + 1)])

        def resid(v):
            return v - others @ np.linalg.lstsq(others, v, rcond=None)[0]

        ry, rx = resid(y), resid(x[rows])
        rho = np.dot(rx, ry) / np.dot(rx, rx)
        s2 = np.sum((ry - rho * rx) ** 2) / (len(rows) - 2 - p)
        assert got.statistic == pytest.approx(rho / math.sqrt(s2 / np.dot(rx, rx)), rel=1e-9)
        assert got.n_eff == len(rows)

    @pytest.mark.parametrize("seed", [16, 17, 18])
    def test_matches_design_matrix_form(self, seed):
        rng = np.random.default_rng(seed)
        x = np.cumsum(rng.standard_normal(3000)) + 0.5 * rng.standard_normal(3000)
        got = adf_test(x)
        want_stat, want_lag = _adf_design_matrix(x)
        assert got.lag == want_lag
        assert got.statistic == pytest.approx(want_stat, rel=1e-11)

    @pytest.mark.parametrize("kind", ["random", "near_constant", "near_unit_root"])
    def test_lag_gram_equals_design_matrix_gram(self, kind):
        # X.T @ X of [1, x_t, dy_{t-1..t-p}, dy_t] over t = start..n-2, at
        # the lag-selection start (pmax), the chosen model's (start = p) and
        # starts past p, every build from one set of full lag sums; on the
        # whole series and on its first 50 points, the shortest an ADF takes
        # (pmax 10); each entry to 1e-12 of its Cauchy-Schwarz bound
        # sqrt(G_ii G_jj), as is the prefix-sum form it replaced
        series = (np.random.default_rng(28).standard_normal(2000) if kind == "random"
                  else self._hard_series(kind))
        for n, pmax in ((2000, 25), (50, 10)):
            x = series[:n] - series[:n].mean()
            dy = np.diff(x)
            full = _lag_sums(x, dy, pmax)
            for p, start in ((pmax, pmax), (7, 7), (0, 0), (3, 11), (0, 5), (pmax, pmax + 3)):
                rows = np.arange(start, n - 1)
                X = np.column_stack([np.ones(len(rows)), x[rows]]
                                    + [dy[rows - j] for j in range(1, p + 1)] + [dy[rows]])
                want = X.T @ X
                bound = np.sqrt(np.outer(np.diag(want), np.diag(want)))
                for got in (_lag_gram(x, dy, p, start, full),
                            _oracles.lag_gram_prefix_sums(x, dy, p, start)):
                    err = np.abs(got - want) / bound
                    assert err.max() < 1e-12, (n, p, start, err.max())

    def test_no_design_matrix(self):
        # a 1e5 x 69 design matrix alone is 55 MB; the Gram builder needs a
        # few n-length vectors
        x = np.cumsum(np.random.default_rng(29).standard_normal(100_000))
        tracemalloc.start()
        try:
            adf_test(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_near_collinear_lags_are_degenerate(self):
        # a period-2 series plus 1e-5 noise: each lagged difference is +-1
        # times the next up to 1e-5, so the chosen model's Gram matrix has a
        # condition number above 1e10 after scaling
        x = np.tile([0.0, 1.0], 100) + 1e-5 * np.random.default_rng(1).standard_normal(200)
        with pytest.raises(DegenerateInputError):
            adf_test(x, max_lag=3)

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
