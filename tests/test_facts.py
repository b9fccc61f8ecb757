"""Behavioral tests for the eleven fact tests.

Verdict controls here run at reduced length with single pinned seeds and only
assert cells that are stable across neighboring seeds; the full 20-seed
control matrix at N=1e5 lives in the acceptance suite.
"""

import dataclasses
import math

import numpy as np
import pytest

from stylfacts import facts
from stylfacts.errors import DegenerateInputError, InsufficientDataError
from stylfacts.facts import (EXCURSION_LEVELS, FactConfig, FactId, FactStatus,
                             excursion_lengths, run_all_facts,
                             standardized_returns, zumbach_statistic)
from stylfacts.series import PriceSeries, compute_log_returns
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, simulate
from stylfacts.volatility import VolatilityWindow, rolling_volatility

SUP = FactStatus.SUPPORTED
NOT = FactStatus.NOT_SUPPORTED
INC = FactStatus.INCONCLUSIVE


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
        v = facts.test_volume_volatility(ps)
        assert v.status is INC
        assert "volume" in v.notes[0]
        assert run_all_facts(ps, facts=[FactId.F1])[FactId.F1].status is SUP

    def test_sparse_volume_is_inconclusive(self, garch_case):
        ps, _ = garch_case
        vol = ps.volume.copy()
        vol[:: 4] = np.nan  # 25% missing < 80% present threshold
        sparse = PriceSeries(timestamps=ps.timestamps, open_=ps.open,
                             high=ps.high, low=ps.low, close=ps.close,
                             volume=vol)
        v = facts.test_volume_volatility(sparse)
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
    return r[vol.positions - 1], vol.as_std().values, vol, ps


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

    def test_degenerate_inputs_raise(self):
        rng = np.random.default_rng(14)
        v = np.abs(rng.standard_normal(2000)) + 0.1
        with pytest.raises(DegenerateInputError):
            zumbach_statistic(np.ones(2000), v, n_lags=5)
        with pytest.raises(DegenerateInputError):
            zumbach_statistic(rng.standard_normal(2000), np.ones(2000), n_lags=5)


class TestGainLossMirror:
    def test_negated_returns_swap_the_tails(self, gjr_case):
        ps, _ = gjr_case
        r = compute_log_returns(ps).values
        v1 = facts.test_gain_loss_asymmetry(r)
        v2 = facts.test_gain_loss_asymmetry(-r)
        assert v1.metrics["alpha_left"] == pytest.approx(
            v2.metrics["alpha_right"], rel=1e-10)
        assert v1.metrics["alpha_right"] == pytest.approx(
            v2.metrics["alpha_left"], rel=1e-10)
        assert v2.metrics["gap"] == pytest.approx(-v1.metrics["gap"], rel=1e-10)
        # losses heavier than gains on the original: the mirror cannot agree
        assert v1.status is SUP
        assert v2.status is NOT


class TestSlowDecayGates:
    def test_white_noise_has_no_decay_to_fit(self):
        rng = np.random.default_rng(31)
        v = facts.test_slow_decay(rng.standard_normal(5000))
        assert v.status is NOT
        assert v.metrics["positive_prefix"] < 10
        assert math.isnan(v.metrics["beta"])
        assert v.notes

    def test_alpha_power_is_validated(self):
        with pytest.raises(ValueError):
            facts.test_slow_decay(np.random.default_rng(1).standard_normal(2000),
                                  alpha_power=3)


class TestAbsenceAutocorrelation:
    def test_persistent_ar1_fails(self):
        rng = np.random.default_rng(33)
        n = 3000
        r = np.empty(n)
        r[0] = rng.standard_normal()
        eps = rng.standard_normal(n)
        for t in range(1, n):
            r[t] = 0.9 * r[t - 1] + eps[t]
        v = facts.test_absence_autocorrelation(r)
        assert v.status is NOT
        assert v.metrics["frac_in_band"] < 0.9


class TestAggregationalGaussianity:
    def test_iid_normal_is_supported(self):
        rng = np.random.default_rng(41)
        v = facts.test_aggregational_gaussianity(rng.standard_normal(50_000))
        assert v.status is SUP
        assert not v.metrics["largest_scale_rejected"]

    def test_infinite_variance_is_not_supported(self):
        # t(1.5) sums converge to a stable law, never to a Gaussian
        rng = np.random.default_rng(42)
        v = facts.test_aggregational_gaussianity(rng.standard_t(1.5, 50_000))
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
        v = facts.test_volume_volatility(ps)
        assert v.status in (SUP, NOT)

        w = 21
        win = rolling_volatility(ps, "basic", VolatilityWindow(w, w), scale="std")
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
    ])
    def test_bad_values_raise(self, kwargs):
        with pytest.raises(ValueError):
            FactConfig(**kwargs)

    def test_every_field_has_a_rule(self):
        assert set(facts._FIELD_RULES) == {f.name for f in dataclasses.fields(FactConfig)}

    def test_number_kinds_accepted(self):
        cfg = FactConfig(f1_band_mult=2, f6_window=None, f11_lags=np.int64(5), tail_fraction=0.1)
        assert cfg.f11_lags == 5
        assert FactConfig(f6_window=3).f6_window == 3

    def test_custom_config_flows_through(self, gbm_case):
        ps, _ = gbm_case
        v = facts.test_absence_autocorrelation(
            compute_log_returns(ps).values, config=FactConfig(acf_lags=20))
        assert v.metrics["n_lags"] == 20
        assert len(v.curves["returns_acf"]["lag"]) == 20
