"""Model fitting: power-law ACF decay, GARCH(1,1) quasi-MLE, OU regression,
and tail-exponent estimation.

Numerics pinned here:

- fit_power_law fits l -> l^-beta by damped Gauss-Newton in beta alone
  (Levenberg-Marquardt in one parameter, damping lam * J'J), started at the
  log-log regression slope clipped to [0.05, 3].  It declares convergence
  when an accepted step has both relative step size and relative SSE
  decrease below 1e-10, stops at 200 iterations otherwise, and reports a
  zero Jacobian or a step no damping can make pay through converged=False
  rather than raising.  beta_se = sqrt(SSE/n / J'J), the ML normalization.
- fit_garch11 maximizes the Gaussian quasi-likelihood by projected Newton
  descent on the box omega > 0, alpha, beta >= 0, alpha + beta <= 0.9995,
  with the mean fixed at the sample mean.  The descent runs in standardized
  units: the deviations from the mean are divided by their largest
  magnitude, and their squares by their mean, so the series has variance 1
  and all coordinates are O(1) at any scale of the returns; omega is
  reported times the sample variance, and a variance outside the normal
  float range raises DegenerateInputError.  The descent starts from the
  first point of a fixed 5-point grid and keeps that fit when it converged
  with alpha >= 0.01 and alpha + beta <= 0.999, as on every series with
  volatility clustering, where the other starts reach the same optimum.
  Otherwise it also starts from the rest of the grid, and from the ARCH(1)
  corner when the best of those is weak, and keeps the best (deterministic;
  the first on ties).  The score and Hessian are exact: the first
  derivatives of the variance path obey the same first-order recursion as
  the path itself (Fiorentini, Calzolari & Panattoni 1996), and the second
  derivatives enter through one adjoint recursion; all run as banded
  triangular solves (`kernels.garch_score`).  A fit with alpha = 0, whose
  variance path is the same constant for every beta, is reported at
  beta = 0.  n_evaluations counts variance-path filters: one per
  line-search trial, none for the score.
- fit_ou regresses x_{t+1} on x_t and refuses to report mean reversion unless
  b lies in (0,1) *and* the unit root is rejected at 5% (Dickey-Fuller
  constant-case critical value); plain random walks must error here.
- fit_tail_exponent runs OLS of log exceedance on log value over the top
  order statistics.  Its standard error is the rank-regression asymptotic
  alpha * sqrt(2/n_tail); the naive homoskedastic OLS SE is far too small on
  EDF points, whose residuals are strongly autocorrelated.

fitting imports no scipy itself; the kernels it calls import scipy.linalg at
first use, for LAPACK's banded triangular solve (see `kernels`).
"""

from __future__ import annotations

import itertools
import math
import sys
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DegenerateInputError, InsufficientDataError, NonMeanRevertingError
from .stats import adf_critical_value

LOG_2PI = math.log(2.0 * math.pi)


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


_POWERLAW_TOL = 1e-10
_POWERLAW_MAX_ITER = 200


def fit_power_law(lags, values) -> PowerLawFit:
    """Fit l -> l^-beta to ACF values over the given lags by damped
    Gauss-Newton, from the log-log regression slope (see the module
    docstring for the stopping rules and the standard error)."""
    lags = np.asarray(lags, dtype=float).reshape(-1)
    values = np.asarray(values, dtype=float).reshape(-1)
    n = len(lags)
    if len(values) != n or n < 2:
        raise InsufficientDataError("need >= 2 (lag, value) pairs")
    if np.any(lags < 1):
        raise ValueError("lags must be >= 1")
    pos = values > 0
    if not np.any(pos):
        raise DegenerateInputError("all ACF values non-positive: power-law decay undefined")
    beta = 0.5
    if np.sum(pos) >= 2:
        ll = np.log(lags[pos])
        lv = np.log(values[pos])
        var = np.var(ll)
        slope = np.cov(ll, lv, bias=True)[0, 1] / var if var > 0 else -0.5
        beta = float(np.clip(-slope, 0.05, 3.0))

    log_lags = np.log(lags)
    r = values - lags ** -beta
    # np.dot (BLAS): these sums run over at most f2_max_lag values, too few to thread
    sse = float(np.dot(r, r))
    lam = 1e-3
    converged = False
    it = 0
    while it < _POWERLAW_MAX_ITER and not converged:
        it += 1
        jac = -log_lags * lags ** -beta
        jtj = float(np.dot(jac, jac))
        if jtj <= 0.0:
            break
        g = float(np.dot(jac, r))
        while lam <= 1e13:
            step = g / (jtj + lam * jtj)
            if math.isfinite(step):
                r_new = values - lags ** -(beta + step)
                sse_new = float(np.dot(r_new, r_new))
                if math.isfinite(sse_new) and sse_new <= sse:
                    converged = (abs(step) / max(abs(beta), 1e-300) < _POWERLAW_TOL
                                 and (sse - sse_new) / max(sse, 1e-300) < _POWERLAW_TOL)
                    beta, r, sse = beta + step, r_new, sse_new
                    lam = max(lam * 0.3, 1e-14)
                    break
            lam *= 10.0
        else:
            break  # no damping gives a step that lowers the SSE

    jac = -log_lags * lags ** -beta
    jtj = float(np.dot(jac, jac))
    beta_se = math.sqrt(sse / n / jtj) if jtj != 0.0 else math.nan
    return PowerLawFit(beta=beta, beta_se=beta_se, residual_variance=sse / n,
                       converged=converged and jtj != 0.0, n_iter=it)


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
    # accepted (improving) objective values: the negative average LL of the
    # standardized series, without its constant
    trace: tuple


# (alpha, beta) starting points; omega starts at 1 - alpha - beta, the
# standardized series' unit variance as unconditional variance
_RESTART_GRID = ((0.05, 0.90), (0.10, 0.85), (0.20, 0.70), (0.02, 0.95), (0.15, 0.50))
# A series with little clustering can have its best fit in the ARCH(1)
# corner beta = 0, outside every grid start's basin; when the grid's best
# alpha is below _WEAK_ALPHA the descent also starts from that corner.
_CORNER_START = (0.01, 0.0)
_WEAK_ALPHA = 0.01
# alpha + beta above this is reported as near-IGARCH
_NEAR_IGARCH = 0.999

# The feasible box of x = (omega, alpha, beta) in standardized units as rows
# of A x >= c: omega >= 1e-10, alpha >= 0, beta >= 0, alpha + beta <= 0.9995.
_A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, -1.0]])
_C = np.array([1e-10, 0.0, 0.0, -0.9995])
_ALPHA, _BETA, _CAP = 1, 2, 3  # rows of _A; the first three are also coordinates
# constraint sets a Newton step may hold active; alpha = beta = 0 with
# alpha + beta = 0.9995 is empty
_WORKING_SETS = tuple(ws for k in (1, 2, 3) for ws in itertools.combinations(range(4), k)
                      if ws != (_ALPHA, _BETA, _CAP))
_MAX_ITER = 100         # Newton iterations per start
_MAX_HALVINGS = 30      # backtracking halvings per iteration
_LAST_STEP = 1e-11      # see _newton_fit


def _garch_objective(eps2, x):
    """Negative mean Gaussian log-likelihood without its constant,
    0.5 * mean(log h + eps2/h), at x = (omega, alpha, beta) on the
    standardized eps2; also returns the variance path h."""
    omega, a, b = x
    h = kernels.garch_filter(eps2, omega, a, b, omega / (1.0 - a - b))
    return 0.5 * float(np.mean(np.log(h) + eps2 / h)), h


def _feasible(x):
    return bool(np.all(_A @ x >= _C - 1e-12))


def _newton_step(x, g, B):
    """Minimizer d of the model g'd + d'Bd/2 (B positive definite) over the
    feasible x + d, and the constraints it holds active.

    The model is convex, so its minimizer over the box is the equality-
    constrained minimizer on one of the box's faces; with three coordinates
    there are few enough faces to try them all and keep the best feasible
    one.  On the alpha = 0 face the variance path is the constant
    omega/(1 - beta) for every beta, so beta is held where it is there.
    """
    # 3 x 3 algebra stays on BLAS/LAPACK: far too small to thread
    d = -np.linalg.solve(B, g)
    if _feasible(x + d):
        return d, ()
    best = None
    for ws in _WORKING_SETS:
        A = _A[list(ws)]
        c = _C[list(ws)] - A @ x
        if _ALPHA in ws and _BETA not in ws and _CAP not in ws:
            A = np.vstack((A, _A[_BETA]))
            c = np.append(c, 0.0)
        k = len(A)
        kkt = np.zeros((3 + k, 3 + k))
        kkt[:3, :3] = B
        kkt[:3, 3:] = A.T
        kkt[3:, :3] = A
        try:
            step = np.linalg.solve(kkt, np.concatenate((-g, c)))[:3]
        except np.linalg.LinAlgError:
            continue
        if not _feasible(x + step):
            continue
        model = float(g @ step + 0.5 * step @ B @ step)
        if best is None or model < best[0]:
            best = (model, step, ws)
    if best is None:
        return np.zeros(3), ()
    return best[1], best[2]


def _onto_box(x, ws=()):
    """x with the coordinates of the constraints in ws exactly on their
    bounds and any roundoff past a bound undone."""
    x = np.maximum(x, _C[:3])
    for i in ws:
        if i != _CAP:
            x[i] = _C[i]
    if _CAP in ws or x[_ALPHA] + x[_BETA] > -_C[_CAP]:
        x[_BETA] = max(-_C[_CAP] - x[_ALPHA], 0.0)
    return x


def _positive_definite(B):
    """Cholesky succeeds with no pivot below 1e-6 of the largest, which
    bounds the condition number near 1e12."""
    try:
        pivots = np.diag(np.linalg.cholesky(B))
    except np.linalg.LinAlgError:
        return False
    return bool(pivots.min() > 1e-6 * pivots.max())


def _curvature(x, hess, fisher):
    """The quadratic model's curvature: the exact Hessian when it is positive
    definite.  Otherwise the same with the coordinates that sit on a bound
    decoupled and given their Fisher diagonal (the projected Newton step of
    Bertsekas 1982); on the alpha = 0 face, where beta does not change the
    variance path, beta too if need be.  Failing those, the Fisher
    information with a small Levenberg term for the flat directions of a
    weakly identified fit."""
    if _positive_definite(hess):
        return hess
    bound = x == _C[:3]
    for decouple in (bound, bound | [False, False, bound[_ALPHA]]):
        if decouple.any():
            B = hess.copy()
            B[decouple, :] = 0.0
            B[:, decouple] = 0.0
            B[decouple, decouple] = fisher[decouple, decouple]
            if _positive_definite(B):
                return B
    return fisher + 1e-8 * np.trace(fisher) * np.eye(3)


def _newton_fit(eps2, x, trace):
    """Projected Newton descent from x on the box, with backtracking.

    Each step minimizes the local quadratic model (`_curvature`) over the box
    (`_newton_step`).  A step whose model promises a decrease below
    _LAST_STEP is the last: the convergence is quadratic there, so a further
    step would promise less than roundoff.  A descent that stops on the
    alpha = 0 face at some beta > 0 goes on from the same constant path at
    beta = 0, where raising alpha may still pay.  Returns (x, objective,
    converged, variance-path evaluations).
    """
    f, h = _garch_objective(eps2, x)
    nfev = 1
    for _ in range(_MAX_ITER):
        if not trace or f < trace[-1]:
            trace.append(f)
        g, hess, fisher = kernels.garch_score(eps2, h, *x)
        B = _curvature(x, hess, fisher)
        d, ws = _newton_step(x, g, B)
        slope = float(g @ d)
        last = -(slope + 0.5 * float(d @ B @ d)) < _LAST_STEP
        t = 1.0
        for _ in range(_MAX_HALVINGS):
            trial = _onto_box(x + t * d, ws if t == 1.0 else ())
            f_trial, h_trial = _garch_objective(eps2, trial)
            nfev += 1
            if f_trial <= f + 1e-4 * t * slope:
                x, f, h = trial, f_trial, h_trial
                break
            if last:
                break
            t *= 0.5
        else:
            return x, f, False, nfev
        if last:
            if x[1] > 0.0 or x[2] == 0.0:
                if f < trace[-1]:
                    trace.append(f)
                return x, f, True, nfev
            x = np.array([x[0] / (1.0 - x[2]), 0.0, 0.0])
            f, h = _garch_objective(eps2, x)
            nfev += 1
    return x, f, False, nfev


def _standardized(returns):
    """(returns, mean, variance, eps2) for a fit: eps2 = u^2 / mean(u^2)
    with u = (r - mean) / max|r - mean|, the squared deviations in units of
    their mean, computed without squaring r itself, so the descent sees the
    same numbers at any scale of r whose variance is a normal float."""
    r = np.asarray(returns, dtype=float).reshape(-1)
    if len(r) < 500:
        raise InsufficientDataError("GARCH fit needs at least 500 returns")
    if not np.all(np.isfinite(r)):
        raise DegenerateInputError("non-finite returns")
    mu = float(r.mean())
    dev = r - mu
    top = float(np.max(np.abs(dev)))
    if top == 0.0:
        raise DegenerateInputError("constant returns")
    u2 = (dev / top) ** 2
    mean_u2 = float(u2.mean())
    var = mean_u2 * top * top
    if not sys.float_info.min <= var <= sys.float_info.max:
        raise DegenerateInputError(f"return variance {var:.3g} outside the normal float range")
    return r, mu, var, u2 / mean_u2


def _garch_result(r, mu, var, fits, trace):
    """The GarchFit of the descent with the lowest objective, the first on
    ties, with omega back in the units of r."""
    (w, a, b), _, converged, _ = min(fits, key=lambda fit: fit[1])
    nfev = sum(fit[3] for fit in fits)
    omega = float(w * var)
    if a == 0.0:
        omega, b = omega / (1.0 - b), 0.0
    params = GarchParams(mean=mu, omega=omega, alpha=float(a), beta=float(b))
    near = params.alpha + params.beta > _NEAR_IGARCH
    if near:
        warnings.warn(f"alpha + beta = {params.alpha + params.beta:.4f}: near-IGARCH, "
                      "unconditional variance ill-determined", RuntimeWarning)
    return GarchFit(params=params, log_likelihood=gaussian_log_likelihood(r, params),
                    converged=converged, n_evaluations=nfev, near_igarch=near,
                    trace=tuple(trace))


def fit_garch11(returns) -> GarchFit:
    """Gaussian quasi-MLE of GARCH(1,1) by projected Newton descent on the
    standardized squared deviations (`_standardized`).

    The descent starts from the first point of `_RESTART_GRID`, and that fit
    is kept when it converged with clustering (alpha >= _WEAK_ALPHA) and
    away from the persistence cap (alpha + beta <= _NEAR_IGARCH).  Otherwise
    the descent also starts from the rest of the grid, and from
    `_CORNER_START` when the best of those is weak; the start reaching the
    lowest objective is kept, the first on ties.  A fit with alpha = 0 has the constant variance path
    omega/(1 - beta) for every beta and is reported at beta = 0."""
    r, mu, var, eps2 = _standardized(returns)
    trace: list = []

    def descend(a0, b0):
        return _newton_fit(eps2, np.array([1.0 - a0 - b0, a0, b0]), trace)

    fits = [descend(*_RESTART_GRID[0])]
    (_, a, b), _, converged, _ = fits[0]
    if not (converged and a >= _WEAK_ALPHA and a + b <= _NEAR_IGARCH):
        fits += [descend(a0, b0) for a0, b0 in _RESTART_GRID[1:]]
        if min(fits, key=lambda fit: fit[1])[0][_ALPHA] < _WEAK_ALPHA:
            fits.append(descend(*_CORNER_START))
    return _garch_result(r, mu, var, fits, trace)


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
    varx = float(kernels.dot(dx0, dx0))
    if varx <= 0.0:
        raise DegenerateInputError("constant input")
    b = float(kernels.dot(dx0, x1 - x1.mean()) / varx)
    a = float(x1.mean() - b * x0.mean())
    resid = x1 - a - b * x0
    ssr = float(kernels.dot(resid, resid))
    dof = n - 1 - 2
    s2 = ssr / dof if dof > 0 else 0.0
    b_se = math.sqrt(s2 / varx) if varx > 0 else math.inf
    t_unit = (b - 1.0) / b_se if b_se > 0 else math.inf

    cv5 = adf_critical_value("5%", n - 1)
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
    sxx = float(kernels.dot(dlx, dlx))
    if sxx <= 0.0:
        raise DegenerateInputError("tail values all equal")
    slope = float(kernels.dot(dlx, lp - lp.mean()) / sxx)
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
