import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import pytest

from stylfacts import fitting, kernels
from stylfacts.errors import (DegenerateInputError, InsufficientDataError,
                              NonMeanRevertingError)
from stylfacts.fitting import (GarchFit, GarchParams, PowerLawFit, fit_garch11, fit_ou,
                               fit_power_law, fit_tail_exponent, garch_filter,
                               gaussian_log_likelihood)
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate
from stylfacts.series import compute_log_returns
from stylfacts.stats import acf

_SIM = dict(substeps=1, extremes="substep", volume_mode="none")


def _returns(spec):
    return compute_log_returns(simulate(spec)).values


def _fit_garch11_nelder_mead(returns, mean=None):
    """`fit_garch11` as it was before the Newton fit: five bounded
    Nelder-Mead simplices from the restart grid, then a polish of the best.
    Kept as an oracle and as the baseline benchmarks/bench_kernels.py times."""
    from scipy.optimize import minimize

    r = np.asarray(returns, dtype=float).reshape(-1)
    mu = float(r.mean()) if mean is None else float(mean)
    eps2 = (r - mu) ** 2
    var = float(eps2.mean())
    trace = []

    def negll(theta):
        w, a, b = theta
        if w <= 0.0 or a < 0.0 or b < 0.0 or a + b >= 0.9995:
            return 1e10
        omega = w * var
        h = kernels.garch_filter(eps2, omega, a, b, omega / (1.0 - a - b))
        val = 0.5 * float(np.mean(np.log(h) + eps2 / h))
        if not math.isfinite(val):
            return 1e10
        if not trace or val < trace[-1]:
            trace.append(val)
        return val

    bounds = [(1e-10, 50.0), (0.0, 0.999), (0.0, 0.999)]
    best = None
    nfev = 0
    for a0, b0 in fitting._RESTART_GRID:
        x0 = np.array([1.0 - a0 - b0, a0, b0])
        res = minimize(negll, x0, method="Nelder-Mead", bounds=bounds,
                       options={"maxfev": 400, "xatol": 1e-6, "fatol": 1e-9})
        nfev += res.nfev
        if best is None or res.fun < best.fun:
            best = res
    res = minimize(negll, best.x, method="Nelder-Mead", bounds=bounds,
                   options={"maxfev": 2000, "xatol": 1e-9, "fatol": 1e-12})
    nfev += res.nfev
    if best.fun < res.fun:
        res = best
    w, a, b = res.x
    params = GarchParams(mean=mu, omega=float(w * var), alpha=float(a), beta=float(b))
    return GarchFit(params=params, log_likelihood=gaussian_log_likelihood(r, params),
                    converged=bool(res.success) and res.fun < 1e9, n_evaluations=nfev,
                    near_igarch=params.alpha + params.beta > 0.999, trace=tuple(trace))


# `lm_minimize` as it was in stylfacts.fitting before `fit_power_law` became a
# one-parameter Gauss-Newton: kept verbatim as that fit's oracle.

@dataclass(frozen=True)
class LmResult:
    params: np.ndarray
    cov: np.ndarray
    residual_variance: float  # SSE / n (ML normalization)
    sse: float
    converged: bool
    n_iter: int
    trace: tuple


def _numeric_jacobian(model: Callable, p: np.ndarray, x: np.ndarray) -> np.ndarray:
    k = len(p)
    J = np.empty((len(x), k))
    for j in range(k):
        h = 1e-7 * max(abs(p[j]), 1.0)
        pp = p.copy()
        pp[j] += h
        fp = model(pp, x)
        pp[j] -= 2 * h
        fm = model(pp, x)
        J[:, j] = (fp - fm) / (2 * h)
    return J


def lm_minimize(model: Callable, x, y, p0, jac: Optional[Callable] = None,
                max_iter: int = 200, tol: float = 1e-10) -> LmResult:
    """Minimize sum (y - model(p, x))^2 by Levenberg-Marquardt damping."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    p = np.asarray(p0, dtype=float).reshape(-1).copy()
    n, k = len(y), len(p)
    if n < k:
        raise InsufficientDataError("fewer points than parameters")
    jac_fn = jac if jac is not None else (lambda pp, xx: _numeric_jacobian(model, pp, xx))

    r = y - model(p, x)
    sse = float(np.dot(r, r))
    trace = [sse]
    lam = 1e-3
    converged = False
    singular = False
    it = 0
    while it < max_iter and not converged:
        it += 1
        J = jac_fn(p, x)
        JtJ = J.T @ J
        g = J.T @ r
        d = np.diag(JtJ).copy()
        if np.all(d <= 0.0):
            singular = True
            break
        d[d <= 0.0] = d[d > 0.0].min()
        accepted = False
        while True:
            A = JtJ + lam * np.diag(d)
            try:
                step = np.linalg.solve(A, g)
            except np.linalg.LinAlgError:
                step = None
            if step is not None and np.all(np.isfinite(step)):
                p_new = p + step
                r_new = y - model(p_new, x)
                sse_new = float(np.dot(r_new, r_new))
                if np.isfinite(sse_new) and sse_new <= sse:
                    rel_step = np.linalg.norm(step) / max(np.linalg.norm(p), 1e-300)
                    rel_obj = (sse - sse_new) / max(sse, 1e-300)
                    p, r, sse = p_new, r_new, sse_new
                    trace.append(sse)
                    lam = max(lam * 0.3, 1e-14)
                    accepted = True
                    if rel_step < tol and rel_obj < tol:
                        converged = True
                    break
            lam *= 10.0
            if lam > 1e13:
                break
        if not accepted:
            singular = singular or lam > 1e13
            break

    JtJ = None
    try:
        J = jac_fn(p, x)
        JtJ = J.T @ J
        cov = (sse / n) * np.linalg.inv(JtJ)
    except np.linalg.LinAlgError:
        cov = np.full((k, k), np.nan)
        converged = False
    if singular:
        converged = False
    return LmResult(params=p, cov=cov, residual_variance=sse / n, sse=sse,
                    converged=converged, n_iter=it, trace=tuple(trace))


def _powerlaw_model(p, lags):
    return lags ** (-p[0])


def _powerlaw_jac(p, lags):
    return (-np.log(lags) * lags ** (-p[0]))[:, None]


def _fit_power_law_lm(lags, values, beta0: Optional[float] = None) -> PowerLawFit:
    """`fit_power_law` as it was before its one-parameter Gauss-Newton:
    the same start, through the general `lm_minimize` above."""
    lags = np.asarray(lags, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(-1)
    if len(lags) != len(values) or len(lags) < 2:
        raise InsufficientDataError("need >= 2 (lag, value) pairs")
    if np.any(lags < 1):
        raise ValueError("lags must be >= 1")
    pos = values > 0
    if not np.any(pos):
        raise DegenerateInputError("all ACF values non-positive: power-law decay undefined")
    if beta0 is None:
        if np.sum(pos) >= 2:
            ll = np.log(lags[pos])
            lv = np.log(values[pos])
            var = np.var(ll)
            slope = np.cov(ll, lv, bias=True)[0, 1] / var if var > 0 else -0.5
            beta0 = float(np.clip(-slope, 0.05, 3.0))
        else:
            beta0 = 0.5
    res = lm_minimize(_powerlaw_model, lags, values, [beta0], jac=_powerlaw_jac)
    return PowerLawFit(beta=float(res.params[0]), beta_se=float(np.sqrt(res.cov[0, 0])),
                       residual_variance=res.residual_variance, converged=res.converged,
                       n_iter=res.n_iter)


class TestLmMinimize:
    """The oracle on problems with known answers."""

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

    @staticmethod
    def _oracle_cases():
        """(lags, values) pairs: exact and noisy decay curves, F2's inputs
        (|r| ACFs of GBM, GARCH and GJR series cut at several lags), and
        curves with no decay to fit."""
        rng = np.random.default_rng(30)
        lags = np.arange(1, 201, dtype=float)
        for beta in (0.05, 0.2, 0.4, 1.0, 2.5):
            yield lags, lags ** -beta
            for noise in (1e-3, 1e-2, 1e-1):
                yield lags, lags ** -beta + noise * rng.standard_normal(len(lags))
        for spec in (GbmSpec, GarchSpec, GjrSpec):
            for seed in (1, 2):
                r = _returns(spec(n_steps=20_000, seed=seed, **_SIM))
                a = acf(np.abs(r), 100).values
                for cut in (2, 10, 50, 100):
                    yield np.arange(1, cut + 1, dtype=float), a[:cut]
        yield np.ones(5), np.ones(5)  # zero Jacobian: no step
        yield np.array([1.0, 2.0, 3.0]), np.array([1.0, -1.0, 1e300])

    def test_matches_lm_oracle(self):
        # the one-parameter Gauss-Newton repeats lm_minimize's arithmetic;
        # only the 1x1 solve and products may round differently
        for lags, values in self._oracle_cases():
            with np.errstate(over="ignore"):  # the 1e300 case
                got, want = fit_power_law(lags, values), _fit_power_law_lm(lags, values)
            assert (got.converged, got.n_iter) == (want.converged, want.n_iter)
            np.testing.assert_allclose(
                [got.beta, got.beta_se, got.residual_variance],
                [want.beta, want.beta_se, want.residual_variance], rtol=1e-13, equal_nan=True)

    def test_beta_se_closed_form(self):
        # sqrt(SSE/n / J'J) with J the model's derivative at the fitted beta
        rng = np.random.default_rng(2)
        lags = np.arange(1, 61, dtype=float)
        values = lags ** -0.35 + 0.02 * rng.standard_normal(60)
        fit = fit_power_law(lags, values)
        b = fit.beta
        sse = np.sum((values - lags ** -b) ** 2)
        jtj = np.sum((np.log(lags) * lags ** -b) ** 2)
        assert fit.converged
        assert fit.beta_se == pytest.approx(math.sqrt(sse / 60 / jtj), rel=1e-14)
        assert fit.residual_variance == pytest.approx(sse / 60, rel=1e-14)


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_returns_rejected(self, bad):
        r = 0.01 * np.random.default_rng(22).standard_normal(2000)
        r[700] = bad
        with pytest.raises(DegenerateInputError):
            fit_garch11(r)

    def test_alpha_0_is_reported_at_beta_0(self):
        # with alpha = 0 the path is the constant omega/(1 - beta) for every
        # beta: the fit reports beta = 0, whose path equals any raw optimum's
        r = _returns(GbmSpec(n_steps=10_000, seed=0, **_SIM))
        fit = fit_garch11(r)
        assert fit.params.alpha == 0.0 and fit.params.beta == 0.0
        h = garch_filter(r, fit.params)
        for beta in (0.3, 0.9, 0.99):
            ridge = GarchParams(mean=fit.params.mean, omega=fit.params.omega * (1.0 - beta),
                                alpha=0.0, beta=beta)
            np.testing.assert_allclose(garch_filter(r, ridge), h, rtol=1e-12)
            assert gaussian_log_likelihood(r, ridge) == pytest.approx(fit.log_likelihood,
                                                                       rel=1e-12)

    def test_near_igarch_converges(self):
        r = _returns(GarchSpec(n_steps=10_000, seed=1, omega=1e-7, alpha=0.05,
                               beta=0.9485, **_SIM))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fit = fit_garch11(r)
        assert fit.converged
        assert fit.near_igarch
        assert 0.999 < fit.params.alpha + fit.params.beta < 0.9995
        assert [w.category for w in caught] == [RuntimeWarning]

    def test_repeat_calls_are_bit_identical(self):
        r = _returns(GjrSpec(n_steps=5_000, seed=32, **_SIM))
        assert fit_garch11(r) == fit_garch11(r)

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


class TestGarchScore:
    """The analytic score and Hessian of the fit's objective against central
    differences, inside the box and next to each of its bounds."""

    @pytest.fixture(scope="class")
    def data(self):
        r = _returns(GjrSpec(n_steps=3000, seed=30, **_SIM))
        eps2 = (r - r.mean()) ** 2
        return eps2, float(eps2.mean())

    # x = (omega/var, alpha, beta)
    POINTS = {
        "interior": (0.05, 0.10, 0.85),
        "alpha_near_0": (0.20, 1e-4, 0.80),
        "beta_near_0": (0.90, 0.10, 1e-4),
        "persistence_near_cap": (0.01, 0.15, 0.849),
        "omega_near_0": (1e-6, 0.10, 0.85),
    }

    @staticmethod
    def _steps(x):
        # small, because the higher derivatives are large near the persistence
        # cap, and in omega/var below its scale (the objective goes as log w)
        return np.array([min(1e-6, x[0] / 1e4), 1e-6, 1e-6])

    @pytest.mark.parametrize("point", POINTS)
    def test_score_matches_central_differences(self, data, point):
        eps2, var = data
        x = np.array(self.POINTS[point])
        _, h = fitting._garch_objective(eps2, var, x)
        score, _, _ = fitting._garch_derivatives(eps2, var, x, h)
        fd = np.empty(3)
        for i, step in enumerate(self._steps(x)):
            e = np.zeros(3)
            e[i] = step
            fd[i] = (fitting._garch_objective(eps2, var, x + e)[0]
                     - fitting._garch_objective(eps2, var, x - e)[0]) / (2 * step)
        np.testing.assert_allclose(score, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())

    @pytest.mark.parametrize("point", POINTS)
    def test_hessian_matches_central_differences(self, data, point):
        eps2, var = data
        x = np.array(self.POINTS[point])
        _, h = fitting._garch_objective(eps2, var, x)
        _, hess, _ = fitting._garch_derivatives(eps2, var, x, h)
        fd = np.empty((3, 3))
        for i, step in enumerate(self._steps(x)):
            e = np.zeros(3)
            e[i] = step
            plus = fitting._garch_derivatives(eps2, var, x + e,
                                              fitting._garch_objective(eps2, var, x + e)[1])[0]
            minus = fitting._garch_derivatives(eps2, var, x - e,
                                               fitting._garch_objective(eps2, var, x - e)[1])[0]
            fd[i] = (plus - minus) / (2 * step)
        np.testing.assert_allclose(hess, fd, rtol=1e-6, atol=1e-6 * np.abs(fd).max())
        np.testing.assert_array_equal(hess, hess.T)


class TestGarchAgainstNelderMead:
    """The Newton fit against the Nelder-Mead fit it replaced, at 1e4 steps."""

    SPECS = {
        "garch": GarchSpec(n_steps=10_000, seed=31, **_SIM),
        "gjr": GjrSpec(n_steps=10_000, seed=31, **_SIM),
        "gbm": GbmSpec(n_steps=10_000, seed=109, **_SIM),
        "ou": OuSpec(n_steps=10_000, seed=107, **_SIM),
        "gbm_alpha_0": GbmSpec(n_steps=10_000, seed=0, **_SIM),
    }

    @pytest.mark.parametrize("name", SPECS)
    def test_objective_and_parameters(self, name):
        r = _returns(self.SPECS[name])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = fit_garch11(r)
        oracle = _fit_garch11_nelder_mead(r)
        assert fit.converged
        n = len(r)
        # the objective is the negative log-likelihood per return
        assert -fit.log_likelihood / n <= -oracle.log_likelihood / n + 1e-6
        if oracle.params.alpha >= 0.01:  # a clustering fit is well identified
            assert fit.params.alpha == pytest.approx(oracle.params.alpha, abs=1e-5)
            assert fit.params.beta == pytest.approx(oracle.params.beta, abs=1e-5)
            assert fit.log_likelihood == pytest.approx(oracle.log_likelihood, rel=1e-12)

    def test_flat_series_cost_fewer_evaluations(self):
        # clustering-free series whose flat alpha ~ 1e-3 valley stalls plain
        # Fisher scoring for 75-175 iterations per start
        for spec in (GbmSpec(n_steps=100_000, seed=4, **_SIM),
                     OuSpec(n_steps=100_000, seed=3, **_SIM)):
            r = _returns(spec)
            fit = fit_garch11(r)
            oracle = _fit_garch11_nelder_mead(r)
            assert fit.converged
            assert fit.n_evaluations < oracle.n_evaluations
            assert -fit.log_likelihood <= -oracle.log_likelihood + 1e-6 * len(r)


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
