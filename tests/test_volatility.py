import math

import numpy as np
import pytest

from stylfacts.errors import InsufficientDataError
from stylfacts.series import PriceSeries
from stylfacts.simulate import GbmSpec, simulate
from stylfacts.volatility import (VolatilitySeries, VolatilityWindow,
                                  _rs_finalize, default_window,
                                  rolling_volatility, rs_terms)

DAY = 86400


def random_ohlc(n=300, seed=3):
    rng = np.random.default_rng(seed)
    close = 100.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(n)))
    open_ = np.concatenate(([100.0], close[:-1]))
    body_hi = np.maximum(open_, close)
    body_lo = np.minimum(open_, close)
    high = body_hi * np.exp(rng.uniform(0, 0.01, n))
    low = body_lo * np.exp(-rng.uniform(0, 0.01, n))
    return PriceSeries(DAY * np.arange(n), open_, high, low, close)


def naive_rolling(series, kind, n, stride):
    """Double-loop reference implementation."""
    r = np.diff(np.log(series.close))
    out = []
    e = n
    while e < len(series):
        first_bar = e - n + 1
        if kind == "basic":
            out.append(math.sqrt(np.var(r[e - n:e], ddof=1)))
        elif kind == "parkinson":
            acc = 0.0
            for i in range(first_bar, e + 1):
                acc += math.log(series.high[i] / series.low[i]) ** 2
            out.append(math.sqrt(acc / n / (4 * math.log(2))))
        else:
            acc = 0.0
            for i in range(first_bar, e + 1):
                acc += (math.log(series.high[i] / series.close[i])
                        * math.log(series.high[i] / series.open[i])
                        + math.log(series.low[i] / series.close[i])
                        * math.log(series.low[i] / series.open[i]))
            out.append(math.sqrt(max(acc / n, 0.0)))
        e += stride
    return np.asarray(out)


class TestPointEstimators:
    def test_rs_terms_nonnegative(self):
        # with h >= max(o,c) and l <= min(o,c) both products are >= 0
        s = random_ohlc(200, seed=9)
        t = rs_terms(s.open, s.high, s.low, s.close)
        assert np.all(t >= 0.0)

    def test_rs_finalize_clamps_rounding_noise(self):
        out = _rs_finalize(np.array([-1e-30]), np.array([1e-4]))
        assert out[0] == 0.0

    def test_rs_finalize_warns_on_severe_negative(self):
        with pytest.warns(RuntimeWarning, match="radicand negative"):
            _rs_finalize(np.array([-1e-5]), np.array([1e-4]))


class TestRollingAgainstOracle:
    @pytest.mark.parametrize("kind", ["basic", "parkinson", "rogers_satchell"])
    @pytest.mark.parametrize("n,stride", [(5, 1), (5, 5), (21, 1), (13, 4)])
    def test_matches_naive(self, kind, n, stride):
        s = random_ohlc(240)
        got = rolling_volatility(s, kind, VolatilityWindow(n, stride))
        want = naive_rolling(s, kind, n, stride)
        assert len(got.values) == len(want)
        np.testing.assert_allclose(got.values, want, rtol=1e-10, atol=1e-14)

    def test_positions_and_timestamps(self):
        s = random_ohlc(60)
        vs = rolling_volatility(s, "parkinson", VolatilityWindow(7, 3))
        np.testing.assert_array_equal(vs.positions, 7 + 3 * np.arange(len(vs)))
        np.testing.assert_array_equal(vs.timestamps, s.timestamps[vs.positions])

    def test_basic_scale_conversion(self):
        # Basic reports standard deviations: sqrt of the rolling sample variance
        s = random_ohlc(80)
        r = np.diff(np.log(s.close))
        var = np.array([np.var(r[e - 10:e], ddof=1) for e in range(10, 80, 10)])
        vs = rolling_volatility(s, "basic", VolatilityWindow(10, 10))
        np.testing.assert_allclose(vs.values, np.sqrt(var), rtol=1e-12)

    def test_range_kinds_are_std_native(self):
        # squaring every price doubles every log ratio: an estimator on the
        # std scale doubles, one on the variance scale would quadruple
        s = random_ohlc(80)
        sq = PriceSeries(s.timestamps, s.open ** 2, s.high ** 2, s.low ** 2, s.close ** 2)
        for kind in ("basic", "parkinson", "rogers_satchell"):
            w = VolatilityWindow(5, 5)
            np.testing.assert_allclose(rolling_volatility(sq, kind, w).values,
                                       2.0 * rolling_volatility(s, kind, w).values, rtol=1e-10)

    def test_too_few_bars(self):
        s = random_ohlc(10)
        with pytest.raises(InsufficientDataError):
            rolling_volatility(s, "basic", VolatilityWindow(10, 1))

    def test_basic_needs_window_two(self):
        s = random_ohlc(30)
        with pytest.raises(InsufficientDataError):
            rolling_volatility(s, "basic", VolatilityWindow(1, 1))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            rolling_volatility(random_ohlc(30), "garman", VolatilityWindow(5, 1))

    def test_window_validation(self):
        with pytest.raises(ValueError):
            VolatilityWindow(0, 1)
        with pytest.raises(ValueError):
            VolatilityWindow(5, 0)


class TestCalibration:
    def test_all_three_recover_gbm_sigma(self):
        # sigma = 0.01 per step; the window-std mean carries a ~1.2% Jensen
        # bias at n=21, so 4% absorbs bias plus sampling noise at this length
        ps = simulate(GbmSpec(n_steps=2000, sigma=0.01, mu=0.0, seed=5, substeps=16))
        w = VolatilityWindow(21, 1)
        for kind in ("basic", "parkinson", "rogers_satchell"):
            vs = rolling_volatility(ps, kind, w)
            assert np.mean(vs.values) == pytest.approx(0.01, rel=0.04), kind

    def test_parkinson_lower_sampling_variance_than_basic(self):
        # the range uses more within-bar information than close-to-close
        ps = simulate(GbmSpec(n_steps=3000, sigma=0.01, mu=0.0, seed=6, substeps=32))
        w = VolatilityWindow(21, 21)
        basic = rolling_volatility(ps, "basic", w)
        park = rolling_volatility(ps, "parkinson", w)
        assert np.std(park.values) < np.std(basic.values)


def test_default_window():
    assert default_window(30 * DAY) == 12
    assert default_window(DAY) == 21
    assert default_window(3600) == 24
    assert default_window(60) == 1440
    assert default_window(DAY - 1) >= 2
