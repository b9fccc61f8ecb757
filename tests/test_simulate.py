import importlib
import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from stylfacts.series import (SamplingGrid, compute_log_returns, read_csv,
                              validate_and_gapfill, write_csv)
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate

DAY = 86400
COLUMNS = ("timestamps", "open", "high", "low", "close", "volume")
# the module, not the function `stylfacts.simulate` that the package exports
sim_module = importlib.import_module("stylfacts.simulate")


def ohlc_invariants(ps):
    assert np.all(ps.high >= np.maximum(ps.open, ps.close) - 1e-12)
    assert np.all(ps.low <= np.minimum(ps.open, ps.close) + 1e-12)
    assert np.all(ps.low > 0)
    # each bar opens at the previous close
    np.testing.assert_allclose(ps.open[1:], ps.close[:-1], rtol=1e-12)


class TestCommon:
    @pytest.mark.parametrize("spec", [
        GbmSpec(n_steps=300, seed=1),
        OuSpec(n_steps=300, seed=1),
        GarchSpec(n_steps=300, seed=1),
        GjrSpec(n_steps=300, seed=1),
    ])
    def test_shape_and_invariants(self, spec):
        ps = simulate(spec)
        assert len(ps) == 301  # n_steps intervals need n_steps + 1 bars
        ohlc_invariants(ps)
        np.testing.assert_array_equal(
            ps.timestamps, spec.t0 + spec.step_seconds * np.arange(301))

    # log prices away from 0, where exp then log errs by under an ulp of |x|
    @pytest.mark.parametrize("spec", [
        GbmSpec(n_steps=300, seed=1, p0=100.0),
        OuSpec(n_steps=300, seed=1, mu=3.0),
        GarchSpec(n_steps=300, seed=1, p0=100.0),
        GjrSpec(n_steps=300, seed=1, p0=100.0),
    ])
    def test_log_path_is_the_path_simulate_draws(self, monkeypatch, spec):
        drawn = []
        build = sim_module._bars_from_steps

        def record(x, *args):
            drawn.append(x.copy())
            return build(x, *args)

        monkeypatch.setattr(sim_module, "_bars_from_steps", record)
        ps = simulate(spec)
        x = sim_module.log_path(spec)
        assert x.tobytes() == drawn[0].tobytes()
        np.testing.assert_array_max_ulp(np.log(ps.close), x, maxulp=2)

    def test_deterministic(self):
        a = simulate(GarchSpec(n_steps=500, seed=42))
        b = simulate(GarchSpec(n_steps=500, seed=42))
        for col in ("open", "high", "low", "close", "volume"):
            np.testing.assert_array_equal(getattr(a, col), getattr(b, col))

    def test_seed_changes_path(self):
        a = simulate(GbmSpec(n_steps=100, seed=1))
        b = simulate(GbmSpec(n_steps=100, seed=2))
        assert not np.allclose(a.close, b.close)

    def test_csv_roundtrip_zero_gaps(self):
        ps = simulate(GbmSpec(n_steps=50, seed=3))
        buf = io.StringIO()
        write_csv(ps, buf)
        back = read_csv(io.StringIO(buf.getvalue()))
        out = validate_and_gapfill(back, SamplingGrid(step=DAY))
        assert out.gap_report.n_missing == 0
        np.testing.assert_array_equal(out.close, ps.close)

    def test_volume_modes(self):
        prop = simulate(GbmSpec(n_steps=200, seed=4, volume_mode="proportional"))
        assert prop.volume_present_fraction() == 1.0
        assert np.all(prop.volume >= 0)
        r = np.abs(compute_log_returns(prop).values)
        v = prop.volume[1:]
        assert np.corrcoef(r, v)[0, 1] > 0.5

        none = simulate(GbmSpec(n_steps=200, seed=4, volume_mode="none"))
        assert none.volume_present_fraction() == 0.0

    def test_bridge_extremes_widen_the_substep_grid(self):
        sub = simulate(GbmSpec(n_steps=400, seed=5, extremes="substep"))
        br = simulate(GbmSpec(n_steps=400, seed=5, extremes="bridge"))
        # same seed, same substep skeleton; the bridge can only push outward
        assert np.mean(br.high - br.low) > np.mean(sub.high - sub.low) * 1.01

    def test_validation(self):
        with pytest.raises(ValueError, match="n_steps"):
            GbmSpec(n_steps=0)
        with pytest.raises(ValueError, match="substeps"):
            GbmSpec(n_steps=10, substeps=0)
        with pytest.raises(ValueError, match="extremes"):
            GbmSpec(n_steps=10, extremes="exact")
        with pytest.raises(ValueError, match="volume_mode"):
            GbmSpec(n_steps=10, volume_mode="always")

    @pytest.mark.parametrize("cls,kw,message", [
        (GbmSpec, {"sigma": math.nan}, "sigma must be finite"),
        (GbmSpec, {"p0": math.inf}, "p0 must be finite"),
        (GbmSpec, {"p0": 10**400}, "p0 must be finite"),
        (GbmSpec, {"p0": 0.0}, "p0 must be > 0"),
        (GbmSpec, {"sigma": -0.01}, "sigma must be >= 0"),
        (GbmSpec, {"n_steps": True}, "n_steps must be an int, got True"),
        (GbmSpec, {"n_steps": 5.0}, "n_steps must be an int"),
        (GbmSpec, {"seed": -1}, "seed must be >= 0"),
        (GbmSpec, {"mu": "0"}, "mu must be a number"),
        (GbmSpec, {"t0": 1.5}, "t0 must be an int"),
        (OuSpec, {"theta": math.inf}, "theta must be finite"),
        (OuSpec, {"theta": 0.0}, "theta must be > 0"),
        (OuSpec, {"x0": math.nan}, "x0 must be finite"),
        (GarchSpec, {"omega": math.inf}, "omega must be finite"),
        (GarchSpec, {"beta": -0.1}, "beta must be >= 0"),
        (GarchSpec, {"burn_in": -1}, "burn_in must be >= 0"),
        (GarchSpec, {"df": math.inf}, "df must be finite"),
        (GarchSpec, {"innovation": None}, "innovation must be one of"),
        (GjrSpec, {"gamma": math.nan}, "gamma must be finite"),
        (GjrSpec, {"alpha": -0.01, "gamma": 0.2}, "alpha must be >= 0"),
    ])
    def test_field_rules(self, cls, kw, message):
        # refused where the spec is built, before simulate draws anything
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**{"n_steps": 5, **kw})

    @pytest.mark.parametrize("kw", [{"t0": 2**63}, {"t0": -2**63 - 1},
                                    {"step_seconds": 2**62}, {"t0": 2**63 - 10, "step_seconds": 1}])
    def test_timestamps_must_fit_int64(self, kw):
        with pytest.raises(ValueError, match="int64"):
            GbmSpec(n_steps=10, **kw)

    def test_last_timestamp_may_be_the_int64_maximum(self):
        ps = simulate(GbmSpec(n_steps=10, step_seconds=1, t0=2**63 - 11))
        assert ps.timestamps[-1] == 2**63 - 1


class TestGbm:
    def test_moments(self):
        spec = GbmSpec(n_steps=100_000, seed=6, mu=2e-4, sigma=0.01,
                       substeps=1, extremes="substep", volume_mode="none")
        r = compute_log_returns(simulate(spec)).values
        assert r.mean() == pytest.approx(2e-4, abs=2e-4)
        assert r.std(ddof=1) == pytest.approx(0.01, rel=0.02)

    def test_p0(self):
        ps = simulate(GbmSpec(n_steps=10, seed=7, p0=42.0))
        assert ps.open[0] == pytest.approx(42.0)

    def test_log_returns_are_iid_normal(self):
        from stylfacts.stats import anderson_darling_normal
        spec = GbmSpec(n_steps=20_000, seed=8, substeps=1, extremes="substep")
        r = compute_log_returns(simulate(spec)).values
        assert not anderson_darling_normal(r).reject["5%"]


class TestOu:
    def test_mean_reversion_recovered(self):
        from stylfacts.fitting import fit_ou
        spec = OuSpec(n_steps=60_000, seed=9, theta=0.08, mu=0.5, sigma=0.015,
                      substeps=1, extremes="substep", volume_mode="none")
        fit = fit_ou(np.log(simulate(spec).close))
        assert fit.params.theta == pytest.approx(0.08, abs=0.015)
        assert fit.params.mu == pytest.approx(0.5, abs=0.05)
        assert fit.params.sigma == pytest.approx(0.015, rel=0.05)

    def test_x0_defaults_to_mu(self):
        ps = simulate(OuSpec(n_steps=10, seed=10, mu=1.5))
        assert np.log(ps.open[0]) == pytest.approx(1.5)

    def test_explicit_x0(self):
        ps = simulate(OuSpec(n_steps=10, seed=10, mu=1.5, x0=0.0))
        assert ps.open[0] == pytest.approx(1.0)

    def test_stationary_variance(self):
        theta, sigma = 0.1, 0.02
        spec = OuSpec(n_steps=200_000, seed=11, theta=theta, mu=0.0, sigma=sigma,
                      substeps=1, extremes="substep", volume_mode="none")
        x = np.log(simulate(spec).close)
        assert x.std(ddof=1) == pytest.approx(sigma / np.sqrt(2 * theta), rel=0.05)


class TestGarchFamily:
    def test_unconditional_variance(self):
        spec = GarchSpec(n_steps=200_000, seed=12, omega=1e-6, alpha=0.1, beta=0.85,
                         substeps=1, extremes="substep", volume_mode="none")
        r = compute_log_returns(simulate(spec)).values
        assert r.var(ddof=1) == pytest.approx(spec.unconditional_variance, rel=0.10)

    def test_student_t_unit_variance_scaling(self):
        spec = GarchSpec(n_steps=200_000, seed=13, omega=1e-6, alpha=0.05, beta=0.9,
                         innovation="student_t", df=5.0,
                         substeps=1, extremes="substep", volume_mode="none")
        r = compute_log_returns(simulate(spec)).values
        assert r.var(ddof=1) == pytest.approx(spec.unconditional_variance, rel=0.15)

    def test_volatility_clustering_present(self):
        spec = GarchSpec(n_steps=50_000, seed=14, substeps=1, extremes="substep",
                         volume_mode="none")
        r = compute_log_returns(simulate(spec)).values
        from stylfacts.stats import acf
        a = acf(np.abs(r), 5)
        assert np.all(a.values > 3 * a.se)

    def test_mean_parameter(self):
        spec = GarchSpec(n_steps=100_000, seed=15, mean=5e-4,
                         substeps=1, extremes="substep", volume_mode="none")
        r = compute_log_returns(simulate(spec)).values
        assert r.mean() == pytest.approx(5e-4, abs=1.5e-4)

    def test_gjr_default_has_leverage(self):
        assert GjrSpec(n_steps=10).gamma > 0
        assert GarchSpec(n_steps=10).gamma == 0.0

    def test_stationarity_rejected(self):
        with pytest.raises(ValueError, match="stationarity"):
            GarchSpec(n_steps=100, alpha=0.5, beta=0.6)
        with pytest.raises(ValueError, match="stationarity"):
            GjrSpec(n_steps=100, alpha=0.3, gamma=0.4, beta=0.6)

    def test_gjr_stationarity_uses_half_gamma(self):
        GjrSpec(n_steps=100, alpha=0.05, gamma=0.2, beta=0.84)  # 0.99 < 1
        with pytest.raises(ValueError, match="stationarity"):
            GjrSpec(n_steps=100, alpha=0.05, gamma=0.2, beta=0.86)

    def test_gjr_alpha_plus_gamma_nonnegative(self):
        with pytest.raises(ValueError):
            GjrSpec(n_steps=100, alpha=0.01, gamma=-0.05, beta=0.5)

    def test_student_t_needs_df(self):
        with pytest.raises(ValueError, match="df must be > 2"):
            GarchSpec(n_steps=100, innovation="student_t", df=2.0)
        with pytest.raises(ValueError, match="df > 2"):
            GarchSpec(n_steps=100, innovation="student_t")

    def test_gamma_is_a_gjr_field_only(self):
        with pytest.raises(TypeError):
            GarchSpec(n_steps=20, gamma=0.2)

    def test_dispatcher_types(self):
        assert simulate(GjrSpec(n_steps=20, seed=16)).close.shape == (21,)
        # a GjrSpec must go through the gjr path, not slice to plain garch
        gjr = simulate(GjrSpec(n_steps=2000, seed=17, gamma=0.24, alpha=0.03,
                               beta=0.75, substeps=1, extremes="substep"))
        plain = simulate(GarchSpec(n_steps=2000, seed=17, alpha=0.03, beta=0.75,
                                   substeps=1, extremes="substep"))
        assert not np.allclose(gjr.close, plain.close)


class TestRowBlocks:
    N = 50

    @pytest.mark.parametrize("volume_mode", ["none", "proportional"])
    @pytest.mark.parametrize("substeps", [1, 16])
    @pytest.mark.parametrize("extremes", ["bridge", "substep"])
    @pytest.mark.parametrize("spec_cls", [GbmSpec, GjrSpec])
    def test_block_size_does_not_change_the_bits(self, monkeypatch, spec_cls, extremes,
                                                 substeps, volume_mode):
        # rows build alone, so any blocking gives the one-block bits
        spec = spec_cls(n_steps=self.N, seed=29, substeps=substeps, extremes=extremes,
                        volume_mode=volume_mode)
        monkeypatch.setattr(sim_module, "_BLOCK_ELEMENTS", 10 * self.N * substeps)
        whole = simulate(spec)
        for rows in (1, 7, self.N - 1, self.N, self.N + 1):
            monkeypatch.setattr(sim_module, "_BLOCK_ELEMENTS", rows * substeps)
            got = simulate(spec)
            for col in COLUMNS:
                assert getattr(got, col).tobytes() == getattr(whole, col).tobytes(), (rows, col)

    def test_bars_are_built_in_row_blocks(self):
        # the three n x 16 draws (38.4 MB) stay whole; with every array
        # derived from them whole too, simulate peaked at 146 MB
        tracemalloc.start()
        try:
            simulate(GbmSpec(n_steps=100_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 60e6
