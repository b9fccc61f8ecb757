"""Model fitting: damped least squares, power-law ACF decay, GARCH(1,1)
quasi-MLE, OU regression, and tail-exponent estimation.

Numerics pinned here:

- lm_minimize declares convergence when an accepted step has both relative
  step size and relative objective decrease below tol (default 1e-10), stops
  at max_iter (default 200) otherwise, and reports singular normal equations
  through converged=False rather than raising.  The parameter covariance is
  sigma2 * (J'J)^-1 with the ML normalization sigma2 = SSE/n.
- fit_garch11 maximizes the Gaussian quasi-likelihood with a bounded
  Nelder-Mead simplex restarted from a fixed 5-point grid (deterministic), the
  mean fixed at the sample mean and omega scaled by the sample variance so all
  coordinates are O(1).
- fit_ou regresses x_{t+1} on x_t and refuses to report mean reversion unless
  b lies in (0,1) *and* the unit root is rejected at 5% (Dickey-Fuller
  constant-case critical value); plain random walks must error here.
- fit_tail_exponent runs OLS of log exceedance on log value over the top
  order statistics.  Its standard error is the rank-regression asymptotic
  alpha * sqrt(2/n_tail); the naive homoskedastic OLS SE is far too small on
  EDF points, whose residuals are strongly autocorrelated.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.optimize import minimize

from . import kernels
from .errors import DegenerateInputError, InsufficientDataError, NonMeanRevertingError
from .stats import ADF_CV_COEF

LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# Damped least squares
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# Power-law decay of an ACF
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerLawFit:
    beta: float
    beta_se: float
    residual_variance: float
    converged: bool
    n_iter: int


def _powerlaw_model(p, lags):
    return lags ** (-p[0])


def _powerlaw_jac(p, lags):
    return (-np.log(lags) * lags ** (-p[0]))[:, None]


def fit_power_law(lags, values, beta0: Optional[float] = None) -> PowerLawFit:
    """Fit l -> l^-beta to ACF values over the given lags."""
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


# ---------------------------------------------------------------------------
# GARCH(1,1) quasi-MLE
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GarchParams:
    mean: float
    omega: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.omega > 0.0):
            raise ValueError("omega must be > 0")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise ValueError("alpha and beta must be >= 0")
        if self.alpha + self.beta >= 1.0:
            raise ValueError("stationarity requires alpha + beta < 1")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


def garch_filter(returns, params: GarchParams) -> np.ndarray:
    """Conditional variance path; h_1 is the unconditional variance."""
    r = np.asarray(returns, dtype=float).reshape(-1)
    eps2 = (r - params.mean) ** 2
    return kernels.garch_filter(eps2, params.omega, params.alpha, params.beta,
                                params.unconditional_variance)


def gaussian_log_likelihood(returns, params: GarchParams) -> float:
    r = np.asarray(returns, dtype=float).reshape(-1)
    eps2 = (r - params.mean) ** 2
    h = garch_filter(r, params)
    return float(-0.5 * np.sum(LOG_2PI + np.log(h) + eps2 / h))


@dataclass(frozen=True)
class GarchFit:
    params: GarchParams
    log_likelihood: float
    converged: bool
    n_evaluations: int
    near_igarch: bool
    trace: tuple  # accepted (improving) objective values, negative avg LL


_RESTART_GRID = ((0.05, 0.90), (0.10, 0.85), (0.20, 0.70), (0.02, 0.95), (0.15, 0.50))


def fit_garch11(returns, mean: Optional[float] = None) -> GarchFit:
    r = np.asarray(returns, dtype=float).reshape(-1)
    n = len(r)
    if n < 500:
        raise InsufficientDataError("GARCH fit needs at least 500 returns")
    mu = float(r.mean()) if mean is None else float(mean)
    eps2 = (r - mu) ** 2
    var = float(eps2.mean())
    if var <= 0.0:
        raise DegenerateInputError("constant returns")

    trace: list = []

    def negll(theta):
        # theta = (omega/var, alpha, beta)
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
    for a0, b0 in _RESTART_GRID:
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
    near = params.alpha + params.beta > 0.999
    if near:
        warnings.warn(f"alpha + beta = {params.alpha + params.beta:.4f}: near-IGARCH, "
                      "unconditional variance ill-determined", RuntimeWarning)
    return GarchFit(params=params, log_likelihood=gaussian_log_likelihood(r, params),
                    converged=bool(res.success) and res.fun < 1e9,
                    n_evaluations=nfev, near_igarch=near, trace=tuple(trace))


# ---------------------------------------------------------------------------
# Ornstein-Uhlenbeck by AR(1) regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OuParams:
    theta: float
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.theta > 0.0):
            raise ValueError("theta must be > 0")
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")

    @property
    def stationary_variance(self) -> float:
        return self.sigma ** 2 / (2.0 * self.theta)


@dataclass(frozen=True)
class OuFit:
    params: OuParams
    b: float
    b_se: float
    unit_root_stat: float
    residual_variance: float


def fit_ou(x) -> OuFit:
    """Fit x_{t+1} = a + b x_t + eps and map to OU parameters.

    theta = -ln b, mu = a/(1-b), sigma from the exact transition variance
    sigma^2 (1 - e^{-2 theta}) / (2 theta) = Var(eps).  Raises
    NonMeanRevertingError when b is outside (0,1) or the unit root cannot be
    rejected at 5%.
    """
    x = np.asarray(x, dtype=float).reshape(-1)
    n = len(x)
    if n < 30:
        raise InsufficientDataError("OU fit needs at least 30 points")
    x0, x1 = x[:-1], x[1:]
    dx0 = x0 - x0.mean()
    varx = float(np.dot(dx0, dx0))
    if varx <= 0.0:
        raise DegenerateInputError("constant input")
    b = float(np.dot(dx0, x1 - x1.mean()) / varx)
    a = float(x1.mean() - b * x0.mean())
    resid = x1 - a - b * x0
    ssr = float(np.dot(resid, resid))
    dof = n - 1 - 2
    s2 = ssr / dof if dof > 0 else 0.0
    b_se = math.sqrt(s2 / varx) if varx > 0 else math.inf
    t_unit = (b - 1.0) / b_se if b_se > 0 else math.inf

    c = ADF_CV_COEF["5%"]
    neff = n - 1
    cv5 = c[0] + c[1] / neff + c[2] / neff**2 + c[3] / neff**3
    if not (0.0 < b < 1.0):
        raise NonMeanRevertingError(f"AR(1) coefficient b={b:.6f} outside (0, 1)")
    if t_unit > cv5:
        raise NonMeanRevertingError(
            f"unit root not rejected at 5% (t={t_unit:.2f} > {cv5:.2f}): no mean reversion")

    theta = -math.log(b)
    mu = a / (1.0 - b)
    sigma = math.sqrt(s2 * 2.0 * theta / (1.0 - b * b)) if theta > 0 else 0.0
    return OuFit(params=OuParams(theta=theta, mu=mu, sigma=sigma), b=b, b_se=b_se,
                 unit_root_stat=t_unit, residual_variance=s2)


# ---------------------------------------------------------------------------
# Tail exponent by EDF regression
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailFit:
    alpha: float
    alpha_se: float
    r_squared: float
    intercept: float
    n_tail: int
    x_min: float
    side: str
    # the (value, exceedance) points the regression ran on, ascending in value
    values: np.ndarray = field(repr=False, compare=False)
    exceedance: np.ndarray = field(repr=False, compare=False)


def fit_tail_exponent(x, side: str = "right", tail_fraction: float = 0.05) -> TailFit:
    """OLS of ln P(X > x) on ln x over the top ceil(tail_fraction * N) order
    statistics of the chosen side (left side reflects x -> -x, x < 0)."""
    if side not in ("right", "left"):
        raise ValueError("side must be 'right' or 'left'")
    x = np.asarray(x, dtype=float).reshape(-1)
    n_full = len(x)
    n_tail = math.ceil(tail_fraction * n_full)
    if n_tail < 10:
        raise InsufficientDataError(f"tail would hold {n_tail} < 10 points")
    sample = x[x > 0.0] if side == "right" else -x[x < 0.0]
    m = len(sample)
    if m < n_tail:
        raise InsufficientDataError(f"only {m} {side}-side values for n_tail={n_tail}")
    sample = np.sort(sample)
    # top n_tail order statistics; the maximum has exceedance 0 and drops out
    top = sample[m - n_tail:]
    exceed = (m - np.arange(m - n_tail + 1, m + 1)) / m
    keep = exceed > 0.0
    values, exceedance = top[keep], exceed[keep]
    lx = np.log(values)
    lp = np.log(exceedance)
    n_used = len(lx)
    dlx = lx - lx.mean()
    sxx = float(np.dot(dlx, dlx))
    if sxx <= 0.0:
        raise DegenerateInputError("tail values all equal")
    slope = float(np.dot(dlx, lp - lp.mean()) / sxx)
    intercept = float(lp.mean() - slope * lx.mean())
    fitted = intercept + slope * lx
    ss_res = float(np.sum((lp - fitted) ** 2))
    ss_tot = float(np.sum((lp - lp.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    alpha = -slope
    alpha_se = abs(alpha) * math.sqrt(2.0 / n_used)
    return TailFit(alpha=alpha, alpha_se=alpha_se, r_squared=r2, intercept=intercept,
                   n_tail=n_used, x_min=float(top[0]), side=side, values=values,
                   exceedance=exceedance)
