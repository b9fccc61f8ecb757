"""Time-series and distributional statistics.

Conventions pinned here:

- Autocovariance uses a fixed 1/(N-1) denominator at every lag while the
  mean uses the full series with 1/N; ACF(l) = AutoCov(l) / AutoCov(0).
- Bartlett band: se(l) = sqrt( (1 + 2 * sum_{j<l} ACF(j)^2) / N ), so
  se(1) = 1/sqrt(N) exactly.
- Cross-correlation value(l) = Corr(x_t, y_{t+l}) over the overlapping pairs,
  with se(l) = 1/sqrt(N - |l|).
- EDF exceedance at the i-th order statistic is (N - i)/N.
- KS against Normal(mean(x), var(x)) uses the asymptotic Kolmogorov p-value;
  with estimated parameters it is approximate and flagged as such.
- Anderson-Darling (mean and variance estimated) reports the raw A^2 with
  critical values asymptotic/(1 + 0.75/N + 2.25/N^2), i.e. the usual
  finite-sample correction moved onto the thresholds.
- ADF regression includes a constant, no trend; lag order minimizes AIC up to
  the Schwert bound floor(12 * (N/100)^(1/4)) on the common sample, and the
  chosen model runs on every row it can; critical values come from the
  standard response-surface constants for the constant-only case.  Both
  steps solve normal equations built from sums and prefix sums of shifted
  slices (`_lag_gram`: O(N * lags) time, O(N) memory).  A singular model or
  a residual sum of squares <= 0 raises DegenerateInputError.

scipy.special is imported inside the three functions that call it (KS, AD,
QQ), at first use, so that importing the package loads no scipy (see
`kernels`).  The normal CDF and its logs come from `ndtr` and `log_ndtr`,
the functions scipy.stats.norm evaluates for finite input, so the results
are the same bits without scipy.stats: a fresh interpreter's first KS test
took about 0.6 s and peaked at 100 MB of RSS with it, and takes 0.25 s and
55 MB without (`benchmarks/bench_kernels.py`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DegenerateInputError, InsufficientDataError
from .kernels import dot

AD_ASYMPTOTIC_CRITICAL = {"10%": 0.656, "5%": 0.787, "1%": 1.092}

# Response-surface constants for the Dickey-Fuller distribution, constant-only
# case: cv(T) = b0 + b1/T + b2/T^2 + b3/T^3 (MacKinnon's tabulation).
ADF_CV_COEF = {
    "1%": (-3.43035, -6.5393, -16.786, -79.433),
    "5%": (-2.86154, -2.8903, -4.234, -40.04),
    "10%": (-2.56677, -1.5384, -2.809, 0.0),
}


def adf_critical_value(level: str, n_eff: int) -> float:
    """MacKinnon's finite-sample Dickey-Fuller critical value at `level`
    ("1%", "5%" or "10%") for the constant, no-trend case."""
    b = ADF_CV_COEF[level]
    return b[0] + b[1] / n_eff + b[2] / n_eff**2 + b[3] / n_eff**3


def _as1d(x) -> np.ndarray:
    return np.asarray(x, dtype=float).reshape(-1)


@dataclass(frozen=True)
class AcfResult:
    lags: np.ndarray
    values: np.ndarray
    se: np.ndarray
    n: int


@dataclass(frozen=True)
class CcfResult:
    lags: np.ndarray
    values: np.ndarray
    se: np.ndarray
    n: int


@dataclass(frozen=True)
class PearsonResult:
    value: float
    fisher_z: float
    z_se: float
    ci95: tuple
    n: int


@dataclass(frozen=True)
class GofTestResult:
    statistic: float
    p_value: Optional[float]
    critical_values: dict
    reject: dict
    n: int
    note: str = ""


@dataclass(frozen=True)
class AdfResult:
    statistic: float
    lag: int
    n_eff: int
    critical_values: dict
    reject: dict
    note: str = ""


@dataclass(frozen=True)
class QqData:
    theoretical: np.ndarray
    empirical: np.ndarray


def autocovariance(x, max_lag: int) -> np.ndarray:
    """AutoCov(l) for l = 0..max_lag with the fixed 1/(N-1) denominator."""
    x = _as1d(x)
    n = len(x)
    if n <= max_lag + 1:
        raise InsufficientDataError(f"series of length {n} too short for max_lag={max_lag}")
    dx = x - x.mean()
    out = np.empty(max_lag + 1)
    for lag in range(max_lag + 1):
        tail = dx[lag:] if lag else dx
        out[lag] = dot(dx[: n - lag], tail) / (n - 1)
    return out


def acf(x, max_lag: int) -> AcfResult:
    """ACF at lags 1..max_lag with Bartlett standard errors."""
    cov = autocovariance(x, max_lag)
    if cov[0] <= 0.0:
        raise DegenerateInputError("zero variance: ACF undefined")
    rho = cov[1:] / cov[0]
    n = len(_as1d(x))
    cum = np.concatenate(([0.0], np.cumsum(rho[:-1] ** 2)))
    se = np.sqrt((1.0 + 2.0 * cum) / n)
    return AcfResult(lags=np.arange(1, max_lag + 1), values=rho, se=se, n=n)


def cross_correlation(x, y, max_lag: int) -> CcfResult:
    """Corr(x_t, y_{t+l}) for l in [-max_lag, max_lag]."""
    x = _as1d(x)
    y = _as1d(y)
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    n = len(x)
    if n - max_lag < 3:
        raise InsufficientDataError(f"length {n} too short for max_lag={max_lag}")
    lags = np.arange(-max_lag, max_lag + 1)
    values = np.empty(len(lags))
    se = np.empty(len(lags))
    for i, lag in enumerate(lags):
        if lag >= 0:
            a, b = x[: n - lag], y[lag:]
        else:
            a, b = x[-lag:], y[: n + lag]
        da = a - a.mean()
        db = b - b.mean()
        denom = np.sqrt(dot(da, da) * dot(db, db))
        if denom == 0.0:
            raise DegenerateInputError(f"zero variance in overlap at lag {lag}")
        values[i] = dot(da, db) / denom
        se[i] = 1.0 / math.sqrt(n - abs(lag))
    return CcfResult(lags=lags, values=values, se=se, n=n)


def pearson_corr(x, y) -> PearsonResult:
    x = _as1d(x)
    y = _as1d(y)
    if len(x) != len(y):
        raise ValueError("series lengths differ")
    n = len(x)
    if n < 4:
        raise InsufficientDataError("need at least 4 pairs")
    dx = x - x.mean()
    dy = y - y.mean()
    denom = math.sqrt(dot(dx, dx) * dot(dy, dy))
    if denom == 0.0:
        raise DegenerateInputError("zero variance input")
    r = float(dot(dx, dy) / denom)
    r = max(-1.0, min(1.0, r))
    z = math.atanh(max(-1 + 1e-15, min(1 - 1e-15, r)))
    z_se = 1.0 / math.sqrt(n - 3)
    ci = (math.tanh(z - 1.959963984540054 * z_se), math.tanh(z + 1.959963984540054 * z_se))
    return PearsonResult(value=r, fisher_z=z, z_se=z_se, ci95=ci, n=n)


def edf_exceedance(x):
    """(sorted values, exceedance probabilities (N-i)/N)."""
    x = np.sort(_as1d(x))
    n = len(x)
    if n == 0:
        raise InsufficientDataError("empty sample")
    exceed = (n - np.arange(1, n + 1)) / n
    return x, exceed


def ks_test_normal(x) -> GofTestResult:
    from scipy.special import kolmogi, kolmogorov, ndtr

    x = _as1d(x)
    n = len(x)
    if n < 8:
        raise InsufficientDataError("KS needs at least 8 points")
    s = x.std(ddof=1)
    if s == 0.0:
        raise DegenerateInputError("zero variance input")
    z = np.sort((x - x.mean()) / s)
    f = ndtr(z)
    i = np.arange(1, n + 1)
    d = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
    p = float(kolmogorov(math.sqrt(n) * d))
    crit = {lvl: float(kolmogi(a)) / math.sqrt(n) for lvl, a in (("10%", 0.10), ("5%", 0.05), ("1%", 0.01))}
    reject = {lvl: d > cv for lvl, cv in crit.items()}
    return GofTestResult(statistic=d, p_value=p, critical_values=crit, reject=reject, n=n,
                         note="approximate: reference parameters estimated from the sample")


def anderson_darling_normal(x) -> GofTestResult:
    from scipy.special import log_ndtr

    x = _as1d(x)
    n = len(x)
    if n < 8:
        raise InsufficientDataError("AD needs at least 8 points")
    s = x.std(ddof=1)
    if s == 0.0:
        raise DegenerateInputError("zero variance input")
    z = np.sort((x - x.mean()) / s)
    log_f = log_ndtr(z)
    log_sf = log_ndtr(-z)
    i = np.arange(1, n + 1)
    a2 = float(-n - np.mean((2 * i - 1) * (log_f + log_sf[::-1])))
    corr = 1.0 + 0.75 / n + 2.25 / (n * n)
    crit = {lvl: cv / corr for lvl, cv in AD_ASYMPTOTIC_CRITICAL.items()}
    reject = {lvl: a2 > cv for lvl, cv in crit.items()}
    return GofTestResult(statistic=a2, p_value=None, critical_values=crit, reject=reject, n=n,
                         note="mean and variance estimated; finite-N correction applied to thresholds")


def _lag_gram(x, dy, p, start):
    """Gram matrix of [1, x_t, dy_{t-1}, ..., dy_{t-p}, dy_t] over the rows
    t = start..n-2 (start >= p), with no design matrix.  Column dy_{t-j} is
    the slice dy[start-j : n-1-j].  The dy entry at lags (i, j) sums
    dy[u] dy[u+d], d = |i-j|, over u = start-m..n-2-m, m = max(i, j): a range
    of one prefix sum per d, each written into the same buffer."""
    n = len(x)
    lags = np.r_[1:p + 1, 0]  # the lag of each dy column; dy_t last
    head = np.stack((np.ones(n - 1 - start), x[start:n - 1]))
    G = np.empty((p + 3, p + 3))
    G[:2, :2] = np.einsum("it,jt->ij", head, head)
    G[:2, 2:] = np.array([np.einsum("it,t->i", head, dy[start - j:n - 1 - j]) for j in lags]).T
    G[2:, :2] = G[:2, 2:].T
    m = np.maximum.outer(lags, lags)
    d = np.abs(np.subtract.outer(lags, lags))
    prefix = np.zeros(n)
    for k in range(p + 1):
        np.multiply(dy[:n - 1 - k], dy[k:], out=prefix[1:n - k])
        np.cumsum(prefix[1:n - k], out=prefix[1:n - k])
        G[2:, 2:][d == k] = prefix[n - 1 - m[d == k]] - prefix[start - m[d == k]]
    return G


def adf_test(x, max_lag: Optional[int] = None) -> AdfResult:
    """Augmented Dickey-Fuller with constant, AIC lag selection.

    Rejection (statistic below the critical value) means the unit root is
    rejected, i.e. the series looks stationary.
    """
    x = _as1d(x)
    n = len(x)
    if n < 50:
        raise InsufficientDataError("ADF needs at least 50 points")
    if np.ptp(x) == 0.0:
        raise DegenerateInputError("constant series")
    pmax = int(12 * (n / 100.0) ** 0.25) if max_lag is None else int(max_lag)
    pmax = max(0, min(pmax, (n - 1) // 2 - 2))
    # the level column is centred: the constant absorbs the shift, so the
    # coefficient on x and its t-statistic are unchanged, and the Gram matrix
    # does not pair a large level with a constant column
    x = x - x.mean()
    dy = np.diff(x)

    # lag selection on the common sample t = pmax..n-2: the candidate models
    # are nested, so each is a leading block of one Gram matrix, with the
    # regressand's products in its last column
    G = _lag_gram(x, dy, pmax, pmax)
    neff_sel = n - 1 - pmax
    best = None
    for p in range(pmax + 1):
        k = 2 + p
        try:
            beta = np.linalg.solve(G[:k, :k], G[:k, -1])
        except np.linalg.LinAlgError:
            raise DegenerateInputError(
                "singular regression (constant or collinear input)") from None
        # np.dot (BLAS) over at most pmax + 2 Gram entries, too few to thread
        ssr = G[-1, -1] - float(np.dot(beta, G[:k, -1]))
        if ssr <= 0.0:
            raise DegenerateInputError("perfect fit in ADF regression")
        aic = neff_sel * math.log(ssr / neff_sel) + 2 * k
        if best is None or aic < best[0]:
            best = (aic, p)
    p = best[1]

    # the chosen model runs on all the rows it can, t = p..n-2
    k = 2 + p
    G = _lag_gram(x, dy, p, p)
    gram, rhs = G[:k, :k], G[:k, -1]
    neff = n - 1 - p
    scale = np.sqrt(np.diag(gram))
    if not np.all(scale > 0.0):
        raise DegenerateInputError("singular regression (constant or collinear input)")
    # the Gram matrix squares the design's condition number; past 1e10 on
    # its unit-diagonal form it cannot give the statistic to six digits
    eig = np.linalg.eigvalsh(gram / np.outer(scale, scale))
    if eig[0] < 1e-10 * eig[-1]:
        raise DegenerateInputError("singular regression (constant or collinear input)")
    beta = np.linalg.solve(gram, rhs)
    ssr = G[-1, -1] - float(np.dot(beta, rhs))
    dof = neff - k
    if dof <= 0 or ssr <= 0.0:
        raise DegenerateInputError("ADF regression degenerate")
    se_rho = math.sqrt(ssr / dof * np.linalg.inv(gram)[1, 1])
    stat = float(beta[1] / se_rho)
    crit = {lvl: adf_critical_value(lvl, neff) for lvl in ADF_CV_COEF}
    reject = {lvl: stat < cv for lvl, cv in crit.items()}
    return AdfResult(statistic=stat, lag=p, n_eff=neff, critical_values=crit, reject=reject,
                     note="constant, no trend; lag by AIC")


def qq_data(x) -> QqData:
    """Normal QQ pairs at plotting positions (i - 0.5)/N.

    The theoretical grid is normalized to zero mean / unit sample std before
    the affine map by (sample mean, sample std), so data that is exactly an
    affine image of the grid sits exactly on the diagonal.
    """
    x = np.sort(_as1d(x))
    n = len(x)
    if n == 0:
        raise InsufficientDataError("empty sample")
    if n == 1:
        return QqData(theoretical=x.copy(), empirical=x.copy())
    from scipy.special import ndtri

    z = ndtri((np.arange(1, n + 1) - 0.5) / n)
    z = (z - z.mean()) / z.std(ddof=1)
    theo = x.mean() + x.std(ddof=1) * z
    return QqData(theoretical=theo, empirical=x)
