"""Behavioral tests for the eleven fact tests.

Verdict controls here run at reduced length with single pinned seeds and only
assert cells that are stable across neighboring seeds; the full 20-seed
control matrix at N=1e5 lives in the acceptance suite.
"""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stylfacts import facts, kernels
from stylfacts.errors import DegenerateInputError, InsufficientDataError
from stylfacts.facts import (EXCURSION_LEVELS, FactConfig, FactId, FactStatus,
                             SeriesContext, excursion_lengths, run_all_facts,
                             standardized_returns, zumbach_statistic)
from stylfacts.series import PriceSeries, compute_log_returns
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, simulate
from stylfacts.volatility import VolatilityWindow, rolling_volatility

SUP = FactStatus.SUPPORTED
NOT = FactStatus.NOT_SUPPORTED
INC = FactStatus.INCONCLUSIVE


def _returns_context(r, config=FactConfig()):
    """A context with no bars that reads `r` as its returns, for draws no price
    path can carry (exp(cumsum) of 50k t(1.5) values overflows)."""
    ctx = SeriesContext(None, config)
    ctx.returns = np.asarray(r, dtype=float)
    return ctx


@pytest.fixture(scope="module")
def gbm_case():
    ps = simulate(GbmSpec(n_steps=8000, seed=202))
    return ps, run_all_facts(ps)


@pytest.fixture(scope="module")
def garch_case():
    ps = simulate(GarchSpec(n_steps=20_000, omega=1e-6, alpha=0.10, beta=0.85,
                            seed=202))
    return ps, run_all_facts(ps)


@pytest.fixture(scope="module")
def gjr_case():
    ps = simulate(GjrSpec(n_steps=20_000, omega=1e-6, alpha=0.03, gamma=0.24,
                          beta=0.75, seed=203))
    return ps, run_all_facts(ps)


class TestVerdictControls:
    def test_gbm_cells(self, gbm_case):
        _, out = gbm_case
        assert out[FactId.F1].status is SUP
        for f in (FactId.F2, FactId.F4, FactId.F5, FactId.F7, FactId.F11):
            assert out[f].status is NOT, f
        # synthetic volume is proportional to |r| by construction
        assert out[FactId.F6].status is SUP

    def test_garch_cells(self, garch_case):
        _, out = garch_case
        for f in (FactId.F1, FactId.F2, FactId.F3, FactId.F4, FactId.F6,
                  FactId.F11):
            assert out[f].status is SUP, f
        # symmetric conditional variance: no leverage, no gain/loss asymmetry
        assert out[FactId.F5].status is NOT
        assert out[FactId.F9].status is NOT

    def test_gjr_cells(self, gjr_case):
        _, out = gjr_case
        for f in (FactId.F2, FactId.F3, FactId.F5, FactId.F6, FactId.F9,
                  FactId.F11):
            assert out[f].status is SUP, f

    def test_clustering_models_have_positive_zumbach_sign(self, garch_case, gjr_case):
        for _, out in (garch_case, gjr_case):
            v = out[FactId.F11]
            assert v.metrics["sign"] == 1
            assert v.metrics["frac_outside_band"] >= 0.5

    def test_gjr_leverage_is_negative_at_lag_one(self, gjr_case):
        _, out = gjr_case
        assert out[FactId.F5].metrics["ccf_lag1"] < 0.0

    def test_every_verdict_carries_its_fact_id(self, garch_case):
        _, out = garch_case
        assert list(out) == list(FactId)
        for fact, v in out.items():
            assert v.fact is fact
            assert isinstance(v.metrics, dict) and v.metrics


class TestInconclusiveGates:
    def test_short_series_is_inconclusive_everywhere(self):
        ps = simulate(GbmSpec(n_steps=60, seed=7))
        out = run_all_facts(ps)
        assert len(out) == 11
        for fact, v in out.items():
            assert v.status is INC, fact
            assert v.notes, fact

    def test_one_bar_series_is_inconclusive_everywhere(self):
        out = run_all_facts(PriceSeries([0], [1.0], [1.0], [1.0], [1.0]))
        assert list(out) == list(FactId)
        for fact, v in out.items():
            assert v.status is INC, fact
            assert v.notes, fact

    def test_flat_series_is_inconclusive_everywhere(self):
        n = 6000
        one = np.ones(n)
        ps = PriceSeries(timestamps=86400 * np.arange(n), open_=one, high=one,
                         low=one, close=one, volume=np.full(n, np.nan))
        out = run_all_facts(ps)
        for fact, v in out.items():
            assert v.status is INC, fact

    def test_missing_volume_only_blocks_volume_fact(self):
        ps = simulate(GbmSpec(n_steps=3000, seed=9, volume_mode="none"))
        v = facts.test_volume_volatility(SeriesContext(ps))
        assert v.status is INC
        assert "volume" in v.notes[0]
        assert run_all_facts(ps, facts=[FactId.F1])[FactId.F1].status is SUP

    def test_more_volatility_lags_than_windows_is_inconclusive(self):
        ps = simulate(GbmSpec(n_steps=2000, seed=1))
        v = facts.test_volatility_clustering(SeriesContext(ps, FactConfig(f4_lags=500)))
        assert v.status is INC
        assert "volatility ACF undefined" in v.notes[0]

    @pytest.mark.parametrize("ratio", [0.9, 0.94])
    def test_shortest_volatility_segment_gives_a_verdict(self, ratio):
        # log volatility a random walk: with f3_min_segment 50, every suffix
        # long enough for ADF but under 100 points made F3 raise
        rng = np.random.default_rng(13)
        r = np.exp(np.cumsum(0.05 * rng.standard_normal(1200)) - 4.5) \
            * rng.standard_normal(1200)
        close = np.exp(np.concatenate(([0.0], np.cumsum(r))))
        ps = PriceSeries(86400 * np.arange(1201), close, close * 1.001, close * 0.999, close)
        cfg = FactConfig(f3_vol_window=450, f3_min_segment=100, f3_suffix_ratio=ratio)
        assert facts.test_intermittency(SeriesContext(ps, cfg)).status is INC

    def test_sparse_volume_is_inconclusive(self, garch_case):
        ps, _ = garch_case
        vol = ps.volume.copy()
        vol[:: 4] = np.nan  # 25% missing < 80% present threshold
        sparse = PriceSeries(timestamps=ps.timestamps, open_=ps.open,
                             high=ps.high, low=ps.low, close=ps.close,
                             volume=vol)
        v = facts.test_volume_volatility(SeriesContext(sparse))
        assert v.status is INC


class TestStandardizedReturns:
    def test_matches_bruteforce_alignment(self):
        rng = np.random.default_rng(11)
        r = rng.standard_normal(60)
        w = 5
        got = standardized_returns(r, w)
        want = np.array([r[w + i] / np.std(r[i:i + w], ddof=1)
                         for i in range(len(r) - w)])
        np.testing.assert_allclose(got, want[np.isfinite(want)], rtol=1e-12)

    def test_zero_volatility_entries_are_dropped(self):
        r = np.concatenate((np.zeros(25), np.ones(10)))
        got = standardized_returns(r, 5)
        # only the four windows straddling the jump have nonzero variance;
        # constant trailing windows (all-zero and all-one) fall out as inf/nan
        np.testing.assert_allclose(
            got, [1 / math.sqrt(0.2), 1 / math.sqrt(0.3),
                  1 / math.sqrt(0.3), 1 / math.sqrt(0.2)])

    def test_too_short_raises(self):
        with pytest.raises(InsufficientDataError):
            standardized_returns(np.ones(6), 5)


def _runs_above(v, thr):
    lengths, cur = [], 0
    for x in v:
        if x > thr:
            cur += 1
        elif cur:
            lengths.append(cur)
            cur = 0
    if cur:
        lengths.append(cur)
    return lengths


class TestExcursions:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(12)
        v = rng.lognormal(size=250)
        prof = excursion_lengths(v)
        assert prof.levels == EXCURSION_LEVELS
        for q, mean, count in zip(prof.levels, prof.mean_lengths, prof.n_excursions):
            runs = _runs_above(v, np.quantile(v, q / 100.0))
            assert count == len(runs)
            if runs:
                assert mean == pytest.approx(np.mean(runs))
            else:
                assert math.isnan(mean)

    def test_crafted_runs(self):
        v = np.zeros(200)
        v[10:13] = 1.0
        v[50] = 1.0
        prof = excursion_lengths(v, levels=(50, 99))
        # above the median threshold 0: runs of length 3 and 1
        assert prof.n_excursions[0] == 2
        assert prof.mean_lengths[0] == pytest.approx(2.0)

    def test_short_input_raises(self):
        with pytest.raises(InsufficientDataError):
            excursion_lengths(np.ones(99))


@pytest.fixture(scope="module")
def aligned(garch_case):
    ps, _ = garch_case
    r = compute_log_returns(ps).values
    vol = rolling_volatility(ps, "parkinson", VolatilityWindow(1, 1))
    return r[vol.positions - 1], vol.values, vol, ps


class TestZumbach:
    def test_time_reversal_flips_sign_exactly(self, aligned):
        r, v, _, _ = aligned
        fwd = zumbach_statistic(r, v, n_lags=5)
        rev = zumbach_statistic(r[::-1], v[::-1], n_lags=5)
        np.testing.assert_allclose(rev.z, -fwd.z, rtol=0, atol=1e-12)

    def test_volatility_object_alignment(self, aligned):
        r, v, vol, ps = aligned
        manual = zumbach_statistic(r, v, n_lags=5)
        auto = zumbach_statistic(compute_log_returns(ps), vol, n_lags=5)
        np.testing.assert_array_equal(manual.z, auto.z)
        np.testing.assert_array_equal(manual.band_low, auto.band_low)

    def test_deterministic_band(self, aligned):
        r, v, _, _ = aligned
        a = zumbach_statistic(r, v)
        b = zumbach_statistic(r, v)
        np.testing.assert_array_equal(a.band_low, b.band_low)
        np.testing.assert_array_equal(a.band_high, b.band_high)

    def test_band_is_centered_on_zero(self, aligned):
        r, v, _, _ = aligned
        zr = zumbach_statistic(r, v)
        assert np.all(zr.band_low <= 0.0)
        assert np.all(zr.band_high >= 0.0)
        assert zr.block_len == math.ceil(zr.n ** (1.0 / 3.0))

    def test_lag_validation(self):
        rng = np.random.default_rng(13)
        r = rng.standard_normal(50)
        v = np.abs(rng.standard_normal(50)) + 0.1
        with pytest.raises(ValueError):
            zumbach_statistic(r, v, n_lags=5)  # 5 >= 50/10
        with pytest.raises(ValueError):
            zumbach_statistic(r, v, n_lags=0)

    def test_misaligned_lengths_raise(self):
        with pytest.raises(ValueError):
            zumbach_statistic(np.ones(200), np.ones(199), n_lags=3)

    @pytest.mark.parametrize("n_boot", [1, 16, 17, 40])
    def test_band_from_one_draw_of_every_start(self, aligned, n_boot):
        # the starts are drawn 16 rows at a time and kept as int32: the band
        # is the one from a single int64 draw of the whole table
        r, v, _, _ = aligned
        cfg = FactConfig(f11_n_boot=n_boot, seed=9)
        zr = zumbach_statistic(r, v, n_lags=5, config=cfg)
        n = len(v)
        starts = facts._child_rng(cfg.seed, 11).integers(
            0, n, size=(n_boot, math.ceil(n / zr.block_len)), dtype=np.int64)
        boots = kernels.zumbach_boot(v * v, r * r, starts, zr.block_len, 5)
        dev = boots - boots.mean(axis=0)
        tail = (1.0 - cfg.f11_level) / 2.0
        assert zr.band_low.tobytes() == np.quantile(dev, tail, axis=0).tobytes()
        assert zr.band_high.tobytes() == np.quantile(dev, 1.0 - tail, axis=0).tobytes()

    def test_batches_give_the_bits_of_one_call(self, aligned, monkeypatch):
        # at most 1,024 drawn resamples per kernel call, the identity row
        # with the last batch; the default n_boot is one call
        r, v, _, _ = aligned
        calls = []
        boot = kernels.zumbach_boot

        def counted(a, b, starts, block_len, n_lags):
            calls.append(starts.shape[0])
            return boot(a, b, starts, block_len, n_lags)

        monkeypatch.setattr(kernels, "zumbach_boot", counted)
        zumbach_statistic(r, v, config=FactConfig())
        assert calls == [1001]
        cfg = FactConfig(f11_n_boot=2500, seed=9)
        calls.clear()
        batched = zumbach_statistic(r, v, config=cfg)
        assert calls == [1024, 1024, 453]
        monkeypatch.setattr(facts, "_F11_BATCH_ROWS", 2512)
        calls.clear()
        one = zumbach_statistic(r, v, config=cfg)
        assert calls == [2501]
        assert batched.n_boot == one.n_boot
        for got, want in ((batched.z, one.z), (batched.band_low, one.band_low),
                          (batched.band_high, one.band_high)):
            assert got.tobytes() == want.tobytes()

    def test_memory_does_not_grow_with_n_boot(self, aligned):
        # the starts of all resamples would be 4 n_boot n / block_len bytes,
        # 11.4 MB at 4,000 resamples of 2e4 bars
        r, v, _, _ = aligned
        peaks = []
        for n_boot in (1000, 4000):
            tracemalloc.start()
            try:
                zumbach_statistic(r, v, config=FactConfig(f11_n_boot=n_boot))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(v) > 19_000
        assert peaks[1] - peaks[0] <= 5e6

    def test_degenerate_inputs_raise(self):
        rng = np.random.default_rng(14)
        v = np.abs(rng.standard_normal(2000)) + 0.1
        with pytest.raises(DegenerateInputError):
            zumbach_statistic(np.ones(2000), v, n_lags=5)
        with pytest.raises(DegenerateInputError):
            zumbach_statistic(rng.standard_normal(2000), np.ones(2000), n_lags=5)


def _one_jump_series(range_noise, n=6000, jump_at=3000, spike_at=None):
    """A price drifting 1e-3 per bar with one jump of 0.05 in its log: every
    return but one is the drift, so b (the squared returns) is constant off
    the jump.  Each bar spans the same log range around its open-close
    midpoint, plus uniform noise of up to range_noise; spike_at widens one
    bar's range, so the Parkinson proxy a has one spike there."""
    t = np.arange(n)
    x = 1e-3 * t
    x[jump_at:] += 0.05
    x_open = np.concatenate(([x[0]], x[:-1]))
    half = 0.03 + range_noise * np.random.default_rng(28).random(n)
    if spike_at is not None:
        half[spike_at] = 0.04
    mid = 0.5 * (x_open + x)
    return PriceSeries(86400 * t, np.exp(x_open), np.exp(mid + half), np.exp(mid - half),
                       np.exp(x), np.ones(n))


class TestZumbachUndefinedResamples:
    def test_one_jump_gives_a_band_on_the_correlation_scale(self):
        # about 37% of the resamples miss the jump: they have no Z and are
        # dropped, and the band comes from the rest (kept, their roundoff
        # variances put the band's edges near -36 at lag 1 and 110 at lag 10)
        ps = _one_jump_series(range_noise=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = facts.test_time_scale_asymmetry(SeriesContext(ps))
        assert verdict.status in (SUP, NOT)
        curve = verdict.curves["zumbach"]
        band = np.concatenate((curve["band_low"], curve["band_high"]))
        assert np.all(np.isfinite(band)) and np.all(np.abs(band) <= 1.0)
        assert np.all(curve["band_low"] <= curve["band_high"])

    def test_too_few_defined_resamples_are_inconclusive(self):
        # a and b each constant but for one bar, far apart: a resample needs
        # both bars, which about 40% of them hold
        ps = _one_jump_series(range_noise=0.0, jump_at=1000, spike_at=4000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = facts.test_time_scale_asymmetry(SeriesContext(ps))
        assert verdict.status is INC
        assert "bootstrap resamples have a defined Z" in verdict.notes[0]

    def test_the_band_counts_only_defined_resamples(self):
        ps = _one_jump_series(range_noise=0.01)
        ctx = SeriesContext(ps)
        zr = zumbach_statistic(ctx.returns, ctx.parkinson)
        assert 500 <= zr.n_boot < 1000

    def test_a_band_of_zero_width_is_inconclusive(self):
        # a drifting price with one 0.05 jump in its log; every bar's high
        # and low lie 1e-3 in log beyond its open and close (5e-3 at one
        # other bar), so a and b vary only at those two bars.  The 635
        # resamples that hold the jump give Z within roundoff of one value,
        # the band's edges meet, and every Z would be "outside" it.
        n = 6000
        x = 1e-3 * np.arange(n)
        x[3000:] += 0.05
        x_open = np.concatenate(([x[0]], x[:-1]))
        beyond = np.full(n, 1e-3)
        beyond[1000] = 5e-3
        ps = PriceSeries(86400 * np.arange(n), np.exp(x_open),
                         np.exp(np.maximum(x_open, x) + beyond),
                         np.exp(np.minimum(x_open, x) - beyond), np.exp(x), np.ones(n))
        ctx = SeriesContext(ps)
        zr = zumbach_statistic(ctx.returns, ctx.parkinson)
        assert zr.n_boot == 635
        assert np.all(zr.band_high - zr.band_low < 1e-14)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            verdict = facts.test_time_scale_asymmetry(ctx)
        assert verdict.status is INC
        assert verdict.notes == ("null band of zero width at lag 1",)


class TestGainLossMirror:
    def test_negated_returns_swap_the_tails(self, gjr_case):
        ps, _ = gjr_case
        r = compute_log_returns(ps).values
        v1 = facts.test_gain_loss_asymmetry(_returns_context(r))
        v2 = facts.test_gain_loss_asymmetry(_returns_context(-r))
        assert v1.metrics["alpha_left"] == pytest.approx(
            v2.metrics["alpha_right"], rel=1e-10)
        assert v1.metrics["alpha_right"] == pytest.approx(
            v2.metrics["alpha_left"], rel=1e-10)
        assert v2.metrics["gap"] == pytest.approx(-v1.metrics["gap"], rel=1e-10)
        # the GARCH-residual pipeline runs without a driver and mirrors too
        assert v1.metrics["alpha_left_conditional"] == pytest.approx(
            v2.metrics["alpha_right_conditional"], rel=1e-10)
        # losses heavier than gains on the original: the mirror cannot agree
        assert v1.status is SUP
        assert v2.status is NOT


class TestSlowDecayGates:
    def test_white_noise_has_no_decay_to_fit(self):
        rng = np.random.default_rng(31)
        v = facts.test_slow_decay(_returns_context(rng.standard_normal(5000)))
        assert v.status is NOT
        assert v.metrics["positive_prefix"] < 10
        assert math.isnan(v.metrics["beta"])
        assert v.notes


class TestAbsenceAutocorrelation:
    def test_persistent_ar1_fails(self):
        rng = np.random.default_rng(33)
        n = 3000
        r = np.empty(n)
        r[0] = rng.standard_normal()
        eps = rng.standard_normal(n)
        for t in range(1, n):
            r[t] = 0.9 * r[t - 1] + eps[t]
        v = facts.test_absence_autocorrelation(_returns_context(r))
        assert v.status is NOT
        assert v.metrics["frac_in_band"] < 0.9


class TestAggregationalGaussianity:
    def test_iid_normal_is_supported(self):
        rng = np.random.default_rng(41)
        v = facts.test_aggregational_gaussianity(_returns_context(rng.standard_normal(50_000)))
        assert v.status is SUP
        assert not v.metrics["largest_scale_rejected"]

    def test_infinite_variance_is_not_supported(self):
        # t(1.5) sums converge to a stable law, never to a Gaussian
        rng = np.random.default_rng(42)
        v = facts.test_aggregational_gaussianity(_returns_context(rng.standard_t(1.5, 50_000)))
        assert v.status is NOT
        assert v.metrics["largest_scale_rejected"]

    def test_curves_are_downsampled(self, garch_case):
        _, out = garch_case
        v = out[FactId.F10]
        assert "normality_by_scale" in v.curves
        for name, cols in v.curves.items():
            if name.startswith("qq_"):
                # integer-stride thinning: at most 2x the 1000-point target
                assert len(cols["theoretical"]) < 2000


class TestVolumeVolatility:
    def test_window_sums_match_bruteforce(self):
        ps0 = simulate(GarchSpec(n_steps=3000, omega=1e-6, alpha=0.10, beta=0.85,
                                 seed=55))
        vol_arr = ps0.volume.copy()
        nan_at = np.array([40, 41, 300, 800, 801, 802, 1500, 2200])
        vol_arr[nan_at] = np.nan
        ps = PriceSeries(timestamps=ps0.timestamps, open_=ps0.open, high=ps0.high,
                         low=ps0.low, close=ps0.close, volume=vol_arr)
        v = facts.test_volume_volatility(SeriesContext(ps))
        assert v.status in (SUP, NOT)

        w = 21
        win = rolling_volatility(ps, "basic", VolatilityWindow(w, w))
        xs, ys = [], []
        for pos, val in zip(win.positions, win.values):
            chunk = vol_arr[pos - w + 1: pos + 1]
            if not np.isnan(chunk).any():
                xs.append(chunk.sum())
                ys.append(val)
        np.testing.assert_allclose(v.curves["volume_volatility"]["volume"], xs,
                                   rtol=1e-12)
        np.testing.assert_allclose(v.curves["volume_volatility"]["volatility"], ys,
                                   rtol=1e-12)
        assert v.metrics["n"] == len(xs)
        assert v.metrics["pearson_r"] == pytest.approx(
            np.corrcoef(xs, ys)[0, 1], rel=1e-12)

    def test_observed_r_matches_a_loop(self):
        v = facts.test_volume_volatility(SeriesContext(simulate(GbmSpec(n_steps=3000, seed=12)),
                                                       FactConfig(f6_window=9)))
        x, y = (v.curves["volume_volatility"][k].tolist() for k in ("volume", "volatility"))
        mx, my = sum(x) / len(x), sum(y) / len(y)
        sxy = sxx = syy = 0.0
        for xi, yi in zip(x, y):
            sxy += (xi - mx) * (yi - my)
            sxx += (xi - mx) ** 2
            syy += (yi - my) ** 2
        assert v.metrics["n"] == len(x) == 333
        assert v.metrics["pearson_r"] == pytest.approx(sxy / math.sqrt(sxx * syy), rel=1e-12)

    def test_constant_volume_is_inconclusive(self):
        ps = simulate(GbmSpec(n_steps=3000, seed=12))
        v = facts.test_volume_volatility(SeriesContext(
            PriceSeries(ps.timestamps, ps.open, ps.high, ps.low, ps.close, np.ones(len(ps)))))
        assert v.status is INC
        assert v.notes == ("correlation undefined: zero variance input",)

    # (resamples, window): whole and partial chunks of resamples, over 333
    # and 300 windows
    @pytest.mark.parametrize("n_boot, window", [(16, 9), (17, 9), (1000, 10), (999, 9)])
    def test_bootstrap_equals_one_draw_of_every_resample(self, n_boot, window):
        cfg = FactConfig(f6_n_boot=n_boot, f6_window=window, seed=4)
        v = facts.test_volume_volatility(SeriesContext(simulate(GbmSpec(n_steps=3000, seed=12)),
                                                       cfg))
        x, y = (v.curves["volume_volatility"][k] for k in ("volume", "volatility"))
        idx = facts._child_rng(cfg.seed, 6).integers(0, len(x), size=(n_boot, len(x)))
        bx = x[idx] - x[idx].mean(axis=1, keepdims=True)
        by = y[idx] - y[idx].mean(axis=1, keepdims=True)
        r = np.einsum("ij,ij->i", bx, by) / np.sqrt(
            np.einsum("ij,ij->i", bx, bx) * np.einsum("ij,ij->i", by, by))
        assert [v.metrics["boot_ci_low"], v.metrics["boot_ci_high"]] == \
            list(np.quantile(r, [0.025, 0.975]))

    def test_bootstrap_memory_does_not_grow_with_resamples(self):
        # 4,761 windows at 1e5 bars: one table of 1000 resamples and its two
        # gathers are 114 MB; a chunk of 16 is under 2 MB
        ps = simulate(GbmSpec(n_steps=100_000, seed=3))
        ctx = SeriesContext(ps)
        tracemalloc.start()
        try:
            v = facts.test_volume_volatility(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert v.metrics["n"] == 4761
        assert peak < 20e6

    @pytest.mark.parametrize("scale", [1e160, 1e308])
    def test_huge_volumes_give_the_metrics_of_ordinary_ones(self, scale):
        # window sums of volumes near 1e160 overflow their products, near
        # 1e308 the sums themselves; correlation is scale-free
        ps = simulate(GarchSpec(n_steps=3000, seed=56))
        volume = ps.volume / ps.volume.max()
        ctx = [SeriesContext(PriceSeries(ps.timestamps, ps.open, ps.high, ps.low, ps.close, v))
               for v in (volume, volume * scale)]
        base, huge = (facts.test_volume_volatility(c) for c in ctx)
        assert base.status is huge.status is SUP
        assert base.metrics["n"] == huge.metrics["n"]
        for key in ("pearson_r", "boot_ci_low", "boot_ci_high"):
            assert huge.metrics[key] == pytest.approx(base.metrics[key], rel=1e-12)

    def test_power_of_two_volumes_give_identical_bits(self):
        ps = simulate(GarchSpec(n_steps=3000, seed=56))
        base, scaled = (facts.test_volume_volatility(SeriesContext(
            PriceSeries(ps.timestamps, ps.open, ps.high, ps.low, ps.close, v)))
            for v in (ps.volume, np.ldexp(ps.volume, 500)))
        assert base.metrics == scaled.metrics
        assert np.array_equal(np.ldexp(base.curves["volume_volatility"]["volume"], 500),
                              scaled.curves["volume_volatility"]["volume"])


class TestRunAllFacts:
    def test_fact_selection(self, gbm_case):
        ps, _ = gbm_case
        out = run_all_facts(ps, facts=["F6", FactId.F1])
        assert list(out) == [FactId.F1, FactId.F6]

    def test_unknown_fact_rejected(self, gbm_case):
        ps, _ = gbm_case
        with pytest.raises(ValueError):
            run_all_facts(ps, facts=["F12"])

    def test_reruns_are_identical(self, garch_case):
        ps, first = garch_case
        again = run_all_facts(ps)
        for fact in FactId:
            assert first[fact].status is again[fact].status
        np.testing.assert_array_equal(
            first[FactId.F11].curves["zumbach"]["band_low"],
            again[FactId.F11].curves["zumbach"]["band_low"])
        assert first[FactId.F6].metrics["boot_ci_low"] == \
            again[FactId.F6].metrics["boot_ci_low"]
        assert first[FactId.F3].metrics["d_garch"] == \
            again[FactId.F3].metrics["d_garch"]


def test_run_all_facts_memory_at_1e5_bars():
    # F11's tables, the rolling windows of F3 and F7/F8 and the shared
    # pieces of the context: 117 MB with whole-view windows and full tables
    ps = simulate(GjrSpec(n_steps=100_000, seed=3))
    tracemalloc.start()
    try:
        out = run_all_facts(ps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(out) == 11
    assert peak <= 80e6


@pytest.fixture(scope="module")
def context_case():
    """A GJR series long enough for every fact, F8 included, and its driver run."""
    ps = simulate(GjrSpec(n_steps=6000, omega=1e-6, alpha=0.03, gamma=0.24,
                          beta=0.75, seed=204))
    cfg = FactConfig(seed=3)
    return ps, cfg, run_all_facts(ps, cfg)


class TestSeriesContext:
    @pytest.mark.parametrize("fact", list(FactId))
    def test_fact_alone_matches_the_driver(self, context_case, fact):
        ps, cfg, out = context_case
        alone = getattr(facts, facts._TESTS[fact])(SeriesContext(ps, cfg))
        driven = out[fact]
        assert alone.status is driven.status
        assert list(alone.metrics) == list(driven.metrics)
        np.testing.assert_equal(alone.metrics, driven.metrics)
        assert alone.notes == driven.notes
        np.testing.assert_equal(alone.curves, driven.curves)

    def test_every_fact_runs_on_the_case(self, context_case):
        _, _, out = context_case
        assert not [f for f, v in out.items() if v.status is INC]

    def test_each_shared_piece_is_computed_once(self, context_case, monkeypatch):
        ps, cfg, _ = context_case
        r = compute_log_returns(ps).values
        calls = {"fit": 0, "standardized": 0, "parkinson": 0, "filter": 0}

        def spy(name, fn, counts):
            def wrapper(*args, **kwargs):
                if counts(*args, **kwargs):
                    calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(facts, fn.__name__, wrapper)

        spy("fit", facts.fit_garch11, lambda x, *a, **k: len(x) == len(r))
        spy("standardized", facts.standardized_returns,
            lambda x, *a, **k: np.array_equal(x, r))
        spy("parkinson", facts.rolling_volatility,
            lambda s, kind, window, *a, **k: kind == "parkinson"
            and window == VolatilityWindow(1, 1))
        spy("filter", facts.garch_filter, lambda *a, **k: True)
        run_all_facts(ps, cfg)
        assert calls == {"fit": 1, "standardized": 1, "parkinson": 1, "filter": 1}

    def test_contexts_do_not_serialize(self, monkeypatch):
        # a lock shared across instances would hold the second reader until
        # the barrier times out
        barrier = threading.Barrier(2, timeout=10)

        def fit(returns):
            barrier.wait()
            return "fit"

        monkeypatch.setattr(facts, "fit_garch11", fit)
        ps = simulate(GbmSpec(n_steps=600, seed=5))
        got = []
        threads = [threading.Thread(target=lambda: got.append(SeriesContext(ps).garch_fit))
                   for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert got == ["fit", "fit"]

    def test_failed_piece_raises_on_every_read(self):
        ctx = SeriesContext(simulate(GbmSpec(n_steps=100, seed=6)))
        for _ in range(2):
            with pytest.raises(InsufficientDataError, match="500 returns"):
                ctx.garch_fit


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"acf_lags": 0},
        {"f2_alpha_power": 3},
        {"tail_fraction": 0.0},
        {"tail_fraction": 0.5},
        {"f3_suffix_ratio": 1.0},
        {"f6_n_boot": 0},
        {"f9_aggregate": 0},
        {"f10_ladder_ratio": 1},
        {"f10_min_samples": 0},
        {"f11_lags": 0},
        {"f11_n_boot": 0},
        {"f11_level": 1.0},
        # each of these passed the old checks
        *({name: v} for name in ("f3_vol_window", "f4_window", "f4_stride", "f5_max_lag",
                                 "f6_window") for v in (0, -1)),
        {"f2_max_lag": -1},
        {"f2_min_fit_lags": 1},
        {"std_window": -1},
        {"f4_lags": 0},
        {"f9_aggregate": 2.5},
        {"f11_lags": 10.5},
        {"f11_n_boot": True},
        {"acf_lags": "50"},
        {"f1_band_mult": "2"},
        {"seed": -1},
        # one bar gives a NaN sample variance, so the fact is always inconclusive
        *({name: 1} for name in ("std_window", "f3_vol_window", "f4_window", "f6_window")),
        # AD and KS need eight points on every ladder rung
        {"f10_min_samples": 7},
        # the excursion profile needs 100 points; each suffix trial drops 5%
        {"f3_min_segment": 50},
        {"f3_min_segment": 99},
        {"f3_suffix_ratio": 0.95},
        {"f3_suffix_ratio": 0.999},
        *({name: v} for name in ("f1_band_mult", "f11_min_outside", "f11_level")
          for v in (math.nan, math.inf, -math.inf)),
    ])
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            FactConfig(**kwargs)

    def test_number_kinds_accepted(self):
        cfg = FactConfig(f1_band_mult=2, f6_window=None, f11_lags=np.int64(5), tail_fraction=0.1)
        assert cfg.f11_lags == 5
        assert FactConfig(f6_window=3).f6_window == 3

    def test_custom_config_flows_through(self, gbm_case):
        ps, _ = gbm_case
        v = facts.test_absence_autocorrelation(SeriesContext(ps, FactConfig(acf_lags=20)))
        assert v.metrics["n_lags"] == 20
        assert len(v.curves["returns_acf"]["lag"]) == 20
