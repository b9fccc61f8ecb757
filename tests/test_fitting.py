import math

import numpy as np
import pytest

from stylfacts.errors import (DegenerateInputError, InsufficientDataError,
                              NonMeanRevertingError)
from stylfacts.fitting import (GarchParams, fit_garch11, fit_ou,
                               fit_power_law, fit_tail_exponent, garch_filter,
                               gaussian_log_likelihood, lm_minimize)
from stylfacts.simulate import GarchSpec, OuSpec, simulate
from stylfacts.series import compute_log_returns


class TestLmMinimize:
    def test_linear_model_exact(self):
        # quadratic objective: LM reaches the OLS solution
        rng = np.random.default_rng(0)
        x = np.linspace(0, 1, 50)
        y = 2.0 + 3.0 * x + 0.01 * rng.standard_normal(50)
        res = lm_minimize(lambda p, t: p[0] + p[1] * t, x, y, [0.0, 0.0])
        want = np.polyfit(x, y, 1)[::-1]
        assert res.converged
        np.testing.assert_allclose(res.params, want, rtol=1e-8)

    def test_exponential_decay_recovery(self):
        x = np.linspace(0, 5, 80)
        y = 1.7 * np.exp(-0.9 * x)
        res = lm_minimize(lambda p, t: p[0] * np.exp(-p[1] * t), x, y, [1.0, 0.1])
        assert res.converged
        np.testing.assert_allclose(res.params, [1.7, 0.9], rtol=1e-7)
        assert res.sse < 1e-18

    def test_trace_is_nonincreasing(self):
        rng = np.random.default_rng(1)
        x = np.linspace(0, 3, 40)
        y = np.exp(-0.5 * x) + 0.05 * rng.standard_normal(40)
        res = lm_minimize(lambda p, t: np.exp(-p[0] * t) * p[1], x, y, [2.0, 0.2])
        assert all(b <= a + 1e-15 for a, b in zip(res.trace, res.trace[1:]))

    def test_cov_matches_ols_formula(self):
        rng = np.random.default_rng(2)
        x = np.linspace(0, 1, 60)
        y = 1.0 - 0.5 * x + 0.1 * rng.standard_normal(60)
        res = lm_minimize(lambda p, t: p[0] + p[1] * t, x, y, [0.0, 0.0])
        X = np.column_stack([np.ones_like(x), x])
        want = res.sse / len(x) * np.linalg.inv(X.T @ X)
        np.testing.assert_allclose(res.cov, want, rtol=1e-6)

    def test_analytic_jacobian_agrees(self):
        x = np.linspace(0.1, 4, 30)
        y = 2.0 * x ** -0.7
        model = lambda p, t: p[0] * t ** -p[1]
        jac = lambda p, t: np.column_stack([t ** -p[1], -p[0] * np.log(t) * t ** -p[1]])
        a = lm_minimize(model, x, y, [1.0, 0.3])
        b = lm_minimize(model, x, y, [1.0, 0.3], jac=jac)
        np.testing.assert_allclose(a.params, b.params, rtol=1e-6)

    def test_fewer_points_than_params(self):
        with pytest.raises(InsufficientDataError):
            lm_minimize(lambda p, t: p[0] + p[1] * t + p[2] * t * t,
                        np.array([1.0, 2.0]), np.array([1.0, 2.0]), [0, 0, 0])


class TestPowerLaw:
    @pytest.mark.parametrize("beta", [0.2, 0.3, 0.4])
    def test_exact_curve(self, beta):
        lags = np.arange(1, 201, dtype=float)
        fit = fit_power_law(lags, lags ** -beta)
        assert fit.converged
        assert fit.beta == pytest.approx(beta, abs=1e-10)
        assert fit.residual_variance < 1e-16

    def test_noisy_recovery(self):
        rng = np.random.default_rng(3)
        lags = np.arange(1, 101, dtype=float)
        y = lags ** -0.3 + 0.01 * rng.standard_normal(100)
        fit = fit_power_law(lags, y)
        assert fit.converged
        assert fit.beta == pytest.approx(0.3, abs=0.05)
        assert fit.beta_se > 0

    def test_all_nonpositive_raises(self):
        with pytest.raises(DegenerateInputError):
            fit_power_law(np.arange(1, 11, dtype=float), -np.ones(10))

    def test_lags_must_be_positive(self):
        with pytest.raises(ValueError):
            fit_power_law(np.array([0.0, 1.0, 2.0]), np.array([1.0, 0.5, 0.3]))

    def test_needs_two_points(self):
        with pytest.raises(InsufficientDataError):
            fit_power_law(np.array([1.0]), np.array([1.0]))


class TestGarchParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GarchParams(mean=0.0, omega=0.0, alpha=0.1, beta=0.8)
        with pytest.raises(ValueError):
            GarchParams(mean=0.0, omega=1e-6, alpha=-0.1, beta=0.8)
        with pytest.raises(ValueError):
            GarchParams(mean=0.0, omega=1e-6, alpha=0.3, beta=0.7)

    def test_unconditional_variance(self):
        p = GarchParams(mean=0.0, omega=1e-6, alpha=0.1, beta=0.85)
        assert p.unconditional_variance == pytest.approx(1e-6 / 0.05)


class TestGarchFilter:
    def test_recursion_matches_naive(self):
        rng = np.random.default_rng(4)
        r = 0.01 * rng.standard_normal(200)
        p = GarchParams(mean=0.001, omega=1e-6, alpha=0.08, beta=0.9)
        h = garch_filter(r, p)
        eps = r - p.mean
        want = np.empty(200)
        want[0] = p.unconditional_variance
        for t in range(1, 200):
            want[t] = 1e-6 + 0.08 * eps[t - 1] ** 2 + 0.9 * want[t - 1]
        np.testing.assert_allclose(h, want, rtol=1e-12)
        assert np.all(h > 0)

    def test_loglik_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        r = 0.01 * rng.standard_normal(300)
        p = GarchParams(mean=0.0, omega=1e-6, alpha=0.05, beta=0.9)
        h = garch_filter(r, p)
        want = -0.5 * np.sum(np.log(2 * np.pi) + np.log(h) + r ** 2 / h)
        assert gaussian_log_likelihood(r, p) == pytest.approx(want, rel=1e-12)


class TestFitGarch:
    def test_recovers_parameters_smoke(self):
        ps = simulate(GarchSpec(n_steps=30_000, seed=6, omega=1e-6, alpha=0.10,
                                beta=0.85, substeps=1, extremes="substep",
                                volume_mode="none"))
        r = compute_log_returns(ps).values
        fit = fit_garch11(r)
        assert fit.converged
        assert fit.params.alpha == pytest.approx(0.10, abs=0.03)
        assert fit.params.beta == pytest.approx(0.85, abs=0.04)
        assert fit.log_likelihood == pytest.approx(
            gaussian_log_likelihood(r, fit.params), rel=1e-12)

    def test_trace_improves(self):
        ps = simulate(GarchSpec(n_steps=5_000, seed=7, substeps=1,
                                extremes="substep", volume_mode="none"))
        r = compute_log_returns(ps).values
        fit = fit_garch11(r)
        assert all(b <= a + 1e-12 for a, b in zip(fit.trace, fit.trace[1:]))
        assert fit.n_evaluations > 0

    def test_needs_500(self):
        with pytest.raises(InsufficientDataError):
            fit_garch11(np.random.default_rng(8).standard_normal(499))

    def test_constant_rejected(self):
        with pytest.raises(DegenerateInputError):
            fit_garch11(np.zeros(1000))

    def test_degenerate_filter_scales_residuals_only(self):
        # an (alpha=beta=0) filter divides by a constant, which cannot change
        # the tail exponent
        rng = np.random.default_rng(9)
        r = 0.01 * rng.standard_t(3, 20_000)
        p = GarchParams(mean=0.0, omega=1e-4, alpha=0.0, beta=0.0)
        z = r / np.sqrt(garch_filter(r, p))
        a_resid = fit_tail_exponent(z, "right", 0.05)
        a_raw = fit_tail_exponent(r, "right", 0.05)
        assert a_resid.alpha == pytest.approx(a_raw.alpha, rel=1e-12)


class TestFitOu:
    def test_recovery(self):
        ps = simulate(OuSpec(n_steps=50_000, seed=10, theta=0.05, mu=1.0,
                             sigma=0.02, substeps=1, extremes="substep",
                             volume_mode="none"))
        x = np.log(ps.close)
        fit = fit_ou(x)
        assert fit.params.theta == pytest.approx(0.05, abs=0.01)
        assert fit.params.mu == pytest.approx(1.0, abs=0.05)
        assert fit.params.sigma == pytest.approx(0.02, rel=0.05)
        assert 0.0 < fit.b < 1.0

    def test_random_walk_rejected(self):
        rng = np.random.default_rng(11)
        x = np.cumsum(0.01 * rng.standard_normal(5000))
        with pytest.raises(NonMeanRevertingError):
            fit_ou(x)

    def test_explosive_rejected(self):
        x = 1.0001 ** np.arange(2000) + 0.001 * np.random.default_rng(12).standard_normal(2000)
        with pytest.raises(NonMeanRevertingError):
            fit_ou(x)

    def test_needs_30(self):
        with pytest.raises(InsufficientDataError):
            fit_ou(np.random.default_rng(13).standard_normal(29))


class TestTailExponent:
    def test_exact_pareto(self):
        # sorted sample whose EDF exceedance (n - i)/n equals x^-3 at every
        # retained rank; the max has exceedance 0 and is dropped by the fit
        n = 1000
        i = np.arange(1, n)
        x = np.empty(n)
        x[:-1] = ((n - i) / n) ** (-1.0 / 3.0)
        x[-1] = 2.0 * x[-2]
        fit = fit_tail_exponent(x, "right", 0.05)
        assert fit.alpha == pytest.approx(3.0, abs=1e-9)
        assert fit.r_squared > 1.0 - 1e-12

    def test_student_t3_alpha_near_3(self):
        rng = np.random.default_rng(14)
        fit = fit_tail_exponent(rng.standard_t(3, 100_000), "right", 0.05)
        assert 2.5 < fit.alpha < 3.5

    def test_mirror_swaps_sides_exactly(self):
        rng = np.random.default_rng(15)
        x = rng.standard_t(4, 5000)
        right = fit_tail_exponent(x, "right", 0.05)
        left = fit_tail_exponent(-x, "left", 0.05)
        assert left.alpha == right.alpha
        assert left.r_squared == right.r_squared
        assert left.x_min == right.x_min

    def test_gaussian_has_larger_alpha_than_t3(self):
        rng = np.random.default_rng(16)
        g = fit_tail_exponent(rng.standard_normal(50_000), "right", 0.05)
        t = fit_tail_exponent(rng.standard_t(3, 50_000), "right", 0.05)
        assert g.alpha > t.alpha + 1.0

    def test_n_tail_counts_used_points(self):
        rng = np.random.default_rng(17)
        fit = fit_tail_exponent(rng.standard_normal(1000), "right", 0.05)
        assert fit.n_tail == 49  # ceil(0.05*1000) minus the zero-exceedance max
        assert fit.alpha_se == pytest.approx(fit.alpha * math.sqrt(2 / 49))

    def test_too_small_tail(self):
        rng = np.random.default_rng(18)
        with pytest.raises(InsufficientDataError):
            fit_tail_exponent(rng.standard_normal(100), "right", 0.05)

    def test_one_sided_sample_fails_other_side(self):
        x = np.abs(np.random.default_rng(19).standard_normal(5000)) + 0.1
        with pytest.raises(InsufficientDataError):
            fit_tail_exponent(x, "left", 0.05)

    def test_side_validation(self):
        with pytest.raises(ValueError):
            fit_tail_exponent(np.arange(1000.0), "upper", 0.05)

    def test_points_are_the_regressed_order_statistics(self):
        x = np.random.default_rng(21).standard_t(4, 4000)
        fit = fit_tail_exponent(x, "left", 0.05)
        sample = np.sort(-x[x < 0.0])
        m = len(sample)
        # the top 200 order statistics without the maximum (exceedance 0)
        np.testing.assert_array_equal(fit.values, sample[m - 200:m - 1])
        np.testing.assert_array_equal(fit.exceedance, np.arange(199, 0, -1) / m)
        assert fit.x_min == fit.values[0]
        slope = np.polyfit(np.log(fit.values), np.log(fit.exceedance), 1)[0]
        assert fit.alpha == pytest.approx(-slope, rel=1e-9)
