"""The eleven stylized-fact tests.

Each test takes a SeriesContext and composes the stats/volatility/fitting
primitives into a FactVerdict with a status in {supported, not_supported,
inconclusive}, the metrics that justify it, and the curve data a report needs
to show why.  The context owns the data several tests share (log returns, the
Parkinson proxy, standardized returns and their tail fits, the full-series
GARCH fit and its residuals): each piece is computed on first read and kept
for the life of the context, which run_all_facts creates per series.

Conventions shared by all tests:

- Data-quantity and data-quality problems never raise: they produce an
  inconclusive verdict with a note saying what was missing.  A test checks
  the preconditions it can state itself; any library error
  (StylfactsError) raised inside it becomes, in one wrapper every test_*
  carries, an inconclusive verdict noted `<ErrorType>: <message>` with `n`
  the series' return count.  So a test called on its own gives the verdict
  run_all_facts gives.  Exceptions are reserved for caller bugs (bad
  parameter values, wrong types).
- Every random ingredient (bootstrap resamples, reference samples, matched
  simulations) draws from a generator derived from config.seed and a
  test-specific tag, so a (series, config) pair always maps to the same
  verdict, bit for bit, regardless of which other tests ran.  A matched
  simulation is a log-price path (`simulate.log_path`), not a set of bars:
  the tests read only its returns.
- The volatility proxy for the cross-correlation tests (F5, F11) is the
  single-bar Parkinson estimator: it is local in time (no window smearing
  across lags) and uses the bar's own high/low rather than the close-to-close
  move, so it is not mechanically tied to the return it is paired with.
- Tail pipelines standardize each return by the trailing-window volatility
  that *excludes* the return itself; dividing a return by a window containing
  it would clip the very outliers the tail fit is after.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

import numpy as np

from . import kernels
from .errors import (DegenerateInputError, InsufficientDataError,
                     NonMeanRevertingError, StylfactsError, check_knobs, knob)
from .fitting import (GarchFit, fit_garch11, fit_ou, fit_power_law,
                      fit_tail_exponent, garch_filter)
from .series import PriceSeries, block_sums, compute_log_returns
from .simulate import GarchSpec, OuSpec, log_path
from .stats import acf, adf_test, anderson_darling_normal, cross_correlation, \
    ks_test_normal, qq_data
from .volatility import VolatilityWindow, default_window, rolling_volatility


class FactId(str, Enum):
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    F6 = "F6"
    F7 = "F7"
    F8 = "F8"
    F9 = "F9"
    F10 = "F10"
    F11 = "F11"


FACT_LABELS = {
    FactId.F1: "absence of return autocorrelation",
    FactId.F2: "slow decay of absolute-return autocorrelation",
    FactId.F3: "intermittency",
    FactId.F4: "volatility clustering",
    FactId.F5: "leverage effect",
    FactId.F6: "volume-volatility correlation",
    FactId.F7: "conditional heavy tails",
    FactId.F8: "unconditional heavy tails",
    FactId.F9: "gain/loss asymmetry",
    FactId.F10: "aggregational gaussianity",
    FactId.F11: "time-reversal asymmetry",
}


class FactStatus(str, Enum):
    SUPPORTED = "supported"
    NOT_SUPPORTED = "not_supported"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FactVerdict:
    fact: FactId
    status: FactStatus
    metrics: dict
    curves: dict = field(default_factory=dict)
    notes: tuple = ()


@dataclass(frozen=True)
class ExcursionProfile:
    """Mean length of maximal runs of volatility strictly above each
    quantile threshold.  NaN marks levels with no excursion at all."""
    levels: tuple
    mean_lengths: tuple
    n_excursions: tuple


@dataclass(frozen=True)
class ZumbachResult:
    lags: np.ndarray
    z: np.ndarray
    band_low: np.ndarray
    band_high: np.ndarray
    n: int
    block_len: int
    n_boot: int


EXCURSION_LEVELS = (1, 5, 25, 50, 90, 95, 99)


@dataclass(frozen=True)
class FactConfig:
    """Tuning knobs for the eleven tests; defaults target daily bars.

    seed drives every bootstrap, reference sample, and matched simulation,
    so equal (series, config) pairs give identical verdicts.  Strides and
    lags start at 1; the F2 power-law fit needs two lags, a window that
    feeds a sample variance (ddof=1) two bars, or every value is NaN, and
    each F10 rung eight blocks, the least the AD and KS tests take.  F3's
    segment needs the excursion profile's 100 volatility points, and a suffix
    ratio below 0.95 makes each suffix trial at least 5 bars shorter.
    """
    seed: int = knob(0, 0)
    step_seconds: int = knob(86400, 1)
    # F1
    acf_lags: int = knob(50, 1)
    f1_band_mult: float = knob(1.96)
    f1_min_in_band: float = knob(0.90)
    # F2
    f2_alpha_power: int = knob(1, 1, 2)
    f2_max_lag: int = knob(100, 1)
    f2_min_fit_lags: int = knob(10, 2)
    f2_range_low: float = knob(0.2)
    f2_range_high: float = knob(0.4)
    # F3
    f3_min_segment: int = knob(500, 100)
    f3_vol_window: int = knob(21, 2)
    f3_suffix_ratio: float = knob(0.75, 0, 0.95)
    # F4
    f4_window: int = knob(5, 2)
    f4_stride: int = knob(5, 1)
    f4_lags: int = knob(5, 1)
    f4_band_mult: float = knob(1.96)
    f4_min_windows: int = knob(100)
    # F5
    f5_max_lag: int = knob(10, 1)
    f5_band_mult: float = knob(1.645)
    f5_frac_below: float = knob(0.60)
    # F6
    f6_window: Optional[int] = knob(None, 2)  # None: day-scale default for step_seconds
    f6_n_boot: int = knob(1000, 1)
    f6_min_volume_fraction: float = knob(0.80)
    # F7/F8 tails
    tail_fraction: float = knob(0.05, 0, 0.5)
    std_window: int = knob(21, 2)
    f8_min_returns: int = knob(5000)
    tail_r2_min: float = knob(0.95)
    tail_se_mult: float = knob(3.0)
    # F9
    f9_aggregate: int = knob(10, 1)
    f9_se_mult: float = knob(1.0)
    # F10
    f10_ladder_ratio: int = knob(4, 2)
    f10_min_samples: int = knob(100, 8)
    f10_min_step_frac: float = knob(0.75)
    # F11
    f11_lags: int = knob(10, 1)
    f11_n_boot: int = knob(1000, 1)
    f11_level: float = knob(0.95, 0, 1)
    f11_min_outside: float = knob(0.50)

    def __post_init__(self):
        check_knobs(self)


DEFAULT_CONFIG = FactConfig()


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

def _values(returns) -> np.ndarray:
    v = getattr(returns, "values", returns)
    return np.asarray(v, dtype=float).reshape(-1)


def _child_rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _child_seed(seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


def _inconclusive(fact: FactId, note: str, **metrics) -> FactVerdict:
    return FactVerdict(fact=fact, status=FactStatus.INCONCLUSIVE,
                       metrics=metrics or {"n": 0}, notes=(note,))


def standardized_returns(returns, window: int) -> np.ndarray:
    """r_t / sigma(t-1), sigma over the trailing `window` returns before r_t.

    Entries whose trailing volatility is zero are dropped (their ratio is
    not informative about tail shape).
    """
    r = _values(returns)
    n = len(r)
    if n < window + 2:
        raise InsufficientDataError(f"need more than {window + 1} returns")
    var = kernels.rolling_var(r, window, 1)
    sd = np.sqrt(var[: n - window])
    with np.errstate(divide="ignore", invalid="ignore"):
        out = r[window:] / sd
    return out[np.isfinite(out)]


# not functools.cached_property: through Python 3.11 its lock is shared by all instances
class _memo:
    """A SeriesContext piece computed on first read and kept on the instance.

    A piece whose computation raises is not kept, so every read raises the
    same error again.
    """

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __get__(self, ctx, owner=None):
        if ctx is None:
            return self
        # the instance attribute shadows this non-data descriptor from now on
        value = ctx.__dict__[self.compute.__name__] = self.compute(ctx)
        return value


class SeriesContext:
    """One series, one config, and the data several fact tests share.

    Each piece below is computed on first read and kept; the context lives for
    one run_all_facts call, and no verdict refers to it.
    """

    def __init__(self, series: PriceSeries, config: FactConfig = DEFAULT_CONFIG):
        self.series = series
        self.config = config

    @_memo
    def returns(self) -> np.ndarray:
        """Log returns of the close."""
        return compute_log_returns(self.series).values

    @_memo
    def parkinson(self):
        """Single-bar Parkinson volatility, the proxy of F5 and F11."""
        return rolling_volatility(self.series, "parkinson", VolatilityWindow(1, 1))

    @_memo
    def standardized(self) -> np.ndarray:
        """Returns over their trailing std_window volatility."""
        return standardized_returns(self.returns, self.config.std_window)

    @_memo
    def standardized_tails(self) -> tuple:
        """Left and right tail fits of the standardized returns."""
        return _fit_both_sides(self.standardized, self.config.tail_fraction)

    @_memo
    def garch_fit(self) -> GarchFit:
        """GARCH(1,1) fit to the full return series."""
        return fit_garch11(self.returns)

    @_memo
    def residuals(self) -> np.ndarray:
        """Returns standardized by the fitted conditional volatility."""
        params = self.garch_fit.params
        return (self.returns - params.mean) / np.sqrt(garch_filter(self.returns, params))


def excursion_lengths(vol, levels=EXCURSION_LEVELS) -> ExcursionProfile:
    """Mean maximal-run length of volatility strictly above each quantile."""
    v = _values(vol)
    if len(v) < 100:
        raise InsufficientDataError("excursion profile needs >= 100 volatility points")
    means = []
    counts = []
    for thr in np.quantile(v, np.asarray(levels) / 100.0):
        above = np.concatenate(([0], (v > thr).astype(np.int8), [0]))
        d = np.diff(above)
        starts = np.flatnonzero(d == 1)
        ends = np.flatnonzero(d == -1)
        lengths = ends - starts
        counts.append(int(len(lengths)))
        means.append(float(lengths.mean()) if len(lengths) else float("nan"))
    return ExcursionProfile(levels=tuple(levels), mean_lengths=tuple(means),
                            n_excursions=tuple(counts))


# ---------------------------------------------------------------------------
# F1: absence of return autocorrelation
# ---------------------------------------------------------------------------

def test_absence_autocorrelation(ctx: SeriesContext) -> FactVerdict:
    """Supported when >= 90% of ACF lags 1..L sit inside the 95% band."""
    config, r = ctx.config, ctx.returns
    if len(r) < 200:
        return _inconclusive(FactId.F1, "need at least 200 returns", n=len(r))
    a = acf(r, config.acf_lags)
    band = config.f1_band_mult * a.se
    inside = np.abs(a.values) <= band
    frac = float(inside.mean())
    first_in = int(a.lags[np.argmax(inside)]) if inside.any() else -1
    status = FactStatus.SUPPORTED if frac >= config.f1_min_in_band else FactStatus.NOT_SUPPORTED
    return FactVerdict(
        fact=FactId.F1, status=status,
        metrics={"n": a.n, "frac_in_band": frac, "first_in_band_lag": first_in,
                 "n_lags": config.acf_lags},
        curves={"returns_acf": {"lag": a.lags, "value": a.values, "se": a.se}})


# ---------------------------------------------------------------------------
# F2: slow decay of absolute-return autocorrelation
# ---------------------------------------------------------------------------

def test_slow_decay(ctx: SeriesContext) -> FactVerdict:
    """Power-law fit l -> l^-beta over the leading positive run of the
    |r|^p ACF, p = f2_alpha_power.  The positivity prefix is found first:
    fitting lags beyond the point where the ACF hits zero would regress on
    pure noise."""
    config, r = ctx.config, ctx.returns
    p = config.f2_alpha_power
    if len(r) < 1000:
        return _inconclusive(FactId.F2, "need at least 1000 returns", n=len(r))
    a = acf(np.abs(r) ** p, config.f2_max_lag)
    nonpos = a.values <= 0.0
    l_star = int(np.argmax(nonpos)) if nonpos.any() else len(a.values)
    metrics = {"n": a.n, "alpha_power": p, "positive_prefix": l_star}
    curves = {"abs_acf": {"lag": a.lags, "value": a.values, "se": a.se}}
    if l_star < config.f2_min_fit_lags:
        metrics["beta"] = float("nan")
        return FactVerdict(FactId.F2, FactStatus.NOT_SUPPORTED, metrics, curves,
                           notes=(f"ACF positive for only {l_star} leading lag(s): "
                                  "no decay to measure",))
    lags = a.lags[:l_star].astype(float)
    fit = fit_power_law(lags, a.values[:l_star])
    metrics.update(beta=fit.beta, beta_se=fit.beta_se,
                   residual_variance=fit.residual_variance,
                   in_reference_range=bool(config.f2_range_low <= fit.beta <= config.f2_range_high))
    curves["abs_acf_fit"] = {"lag": lags, "value": lags ** (-fit.beta)}
    if not fit.converged:
        return FactVerdict(FactId.F2, FactStatus.INCONCLUSIVE, metrics, curves,
                           notes=("decay fit did not converge",))
    status = FactStatus.SUPPORTED if fit.beta > 0.0 else FactStatus.NOT_SUPPORTED
    return FactVerdict(FactId.F2, status, metrics, curves)


# ---------------------------------------------------------------------------
# F3: intermittency
# ---------------------------------------------------------------------------

def _cdf_distance_above_median(data_vol: np.ndarray, model_vol: np.ndarray) -> float:
    """Mean |EDF difference| over the data's volatility values above its median."""
    sd = np.sort(data_vol)
    grid = sd[sd > np.median(sd)]
    if len(grid) == 0:
        raise DegenerateInputError("volatility has no mass above its median")
    f_data = np.searchsorted(sd, grid, side="right") / len(sd)
    f_model = np.searchsorted(np.sort(model_vol), grid, side="right") / len(model_vol)
    return float(np.mean(np.abs(f_data - f_model)))


def _stationary_vol_suffix(vol_values: np.ndarray, config: FactConfig):
    """Longest suffix of the volatility series that rejects a unit root at 5%,
    searched over a geometric grid of suffix lengths; the lengths fall by at
    least 5% a step, so all the trials cost under 20 full-length ADFs."""
    n = len(vol_values)
    lengths = []
    L = n
    while L >= config.f3_min_segment:
        lengths.append(L)
        L = int(L * config.f3_suffix_ratio)
    for L in lengths:
        try:
            res = adf_test(vol_values[n - L:])
        except (InsufficientDataError, DegenerateInputError):
            continue
        if res.reject["5%"]:
            return L, res
    return None, None


def test_intermittency(ctx: SeriesContext) -> FactVerdict:
    """Compare the data's high-volatility regime against matched fitted
    benchmarks: a clustering one (GARCH) and a continuously mean-reverting one
    (OU on the log price), each drawn as a log-price path (`log_path`).
    Supported when the rolling-volatility distribution above its median is
    closer to the GARCH benchmark's.
    """
    series, config, r = ctx.series, ctx.config, ctx.returns
    w = config.f3_vol_window
    if len(r) < config.f3_min_segment + w - 1:
        return _inconclusive(FactId.F3, "series shorter than the minimum stationary segment",
                             n=len(r))

    def rolling_sd(returns):
        # rolling_volatility's basic estimator, from returns alone
        return np.sqrt(kernels.rolling_var(returns, w, 1))

    vol = rolling_sd(r)
    L_vol, adf_res = _stationary_vol_suffix(vol, config)
    if L_vol is None:
        return _inconclusive(FactId.F3, "no stationary volatility segment at 5%", n=len(r))
    L_ret = L_vol + w - 1
    seg_r = r[len(r) - L_ret:]
    seg_x = np.log(series.close[len(series.close) - (L_ret + 1):])
    data_vol = vol[len(vol) - L_vol:]

    gf = ctx.garch_fit if L_ret == len(r) else fit_garch11(seg_r)
    if not gf.converged:
        return _inconclusive(FactId.F3, "GARCH fit did not converge", n=L_ret)

    ou_fallback = False
    try:
        of = fit_ou(seg_x)
        theta, mu, sigma = of.params.theta, of.params.mu, of.params.sigma
    except NonMeanRevertingError:
        # no mean reversion in the data: benchmark against a near-unit-root OU
        # whose one-step noise matches the observed log-price increments
        ou_fallback = True
        theta = 1.0 / len(seg_x)
        b = math.exp(-theta)
        dstd = float(np.std(np.diff(seg_x), ddof=1))
        if dstd == 0.0:
            return _inconclusive(FactId.F3, "constant log price", n=L_ret)
        mu = float(np.mean(seg_x))
        sigma = dstd * math.sqrt(2.0 * theta / (1.0 - b * b))

    g_vol = rolling_sd(np.diff(log_path(GarchSpec(
        n_steps=L_ret, omega=gf.params.omega, alpha=gf.params.alpha, beta=gf.params.beta,
        mean=gf.params.mean, seed=_child_seed(config.seed, 3, 1)))))
    o_vol = rolling_sd(np.diff(log_path(OuSpec(
        n_steps=L_ret, theta=theta, mu=mu, sigma=sigma, x0=float(seg_x[0]),
        seed=_child_seed(config.seed, 3, 2)))))
    d_g = _cdf_distance_above_median(data_vol, g_vol)
    d_ou = _cdf_distance_above_median(data_vol, o_vol)

    prof_data = excursion_lengths(data_vol)
    prof_g = excursion_lengths(g_vol)
    prof_ou = excursion_lengths(o_vol)
    # volatility ACF at intermediate lags: reported for inspection only, the
    # verdict rests on the CDF distances
    acf_lag = min(200, L_vol // 4)
    vol_acf = acf(data_vol, acf_lag) if acf_lag >= 1 else None

    status = FactStatus.SUPPORTED if d_g < d_ou else FactStatus.NOT_SUPPORTED
    metrics = {"n": L_ret, "d_garch": d_g, "d_ou": d_ou,
               "segment_returns": L_ret, "adf_statistic": adf_res.statistic,
               "adf_lag": adf_res.lag, "garch_alpha": gf.params.alpha,
               "garch_beta": gf.params.beta, "ou_theta": theta,
               "ou_fallback": ou_fallback}
    curves = {
        "excursion_profile": {
            "level": np.asarray(prof_data.levels, dtype=float),
            "data": np.asarray(prof_data.mean_lengths),
            "garch": np.asarray(prof_g.mean_lengths),
            "ou": np.asarray(prof_ou.mean_lengths),
        },
    }
    if vol_acf is not None:
        curves["volatility_acf"] = {"lag": vol_acf.lags, "value": vol_acf.values,
                                    "se": vol_acf.se}
    notes = ("OU benchmark pinned near the unit root (no mean reversion in data)",) \
        if ou_fallback else ()
    return FactVerdict(FactId.F3, status, metrics, curves, notes)


# ---------------------------------------------------------------------------
# F4: volatility clustering
# ---------------------------------------------------------------------------

def test_volatility_clustering(ctx: SeriesContext) -> FactVerdict:
    """All three volatility estimators must be positively autocorrelated
    beyond the 95% band at every lag 1..k0 over non-overlapping windows."""
    series, config = ctx.series, ctx.config
    w = VolatilityWindow(config.f4_window, config.f4_stride)
    metrics = {}
    curves = {}
    ok = []
    for kind in ("basic", "parkinson", "rogers_satchell"):
        try:
            vol = rolling_volatility(series, kind, w)
        except (InsufficientDataError, DegenerateInputError) as e:
            return _inconclusive(FactId.F4, f"{kind} volatility failed: {e}", n=len(series))
        if len(vol.values) < config.f4_min_windows:
            return _inconclusive(FactId.F4, f"only {len(vol.values)} volatility windows "
                                 f"(need {config.f4_min_windows})", n=len(vol.values))
        max_lag = max(config.f4_lags, min(50, len(vol.values) - 2))
        try:
            a = acf(vol.values, max_lag)
        except (InsufficientDataError, DegenerateInputError) as e:
            return _inconclusive(FactId.F4, f"{kind} volatility ACF undefined: {e}",
                                 n=len(vol.values))
        upper = config.f4_band_mult * a.se
        head = slice(0, config.f4_lags)
        ok.append(bool(np.all(a.values[head] > upper[head])))
        below = a.values <= upper
        metrics[f"first_decorrelation_lag_{kind}"] = \
            int(a.lags[np.argmax(below)]) if below.any() else -1
        metrics[f"acf1_{kind}"] = float(a.values[0])
        curves[f"vol_acf_{kind}"] = {"lag": a.lags, "value": a.values, "se": a.se}
    metrics["n"] = len(vol.values)
    status = FactStatus.SUPPORTED if all(ok) else FactStatus.NOT_SUPPORTED
    return FactVerdict(FactId.F4, status, metrics, curves)


# ---------------------------------------------------------------------------
# F5: leverage effect
# ---------------------------------------------------------------------------

def test_leverage(ctx: SeriesContext) -> FactVerdict:
    """Corr(r_t, sigma_{t+delta}) must sit below the lower 90% band for most
    positive delta and not for negative delta."""
    config, r = ctx.config, ctx.returns
    vol = ctx.parkinson
    x = r[vol.positions - 1]
    y = vol.values
    if len(x) < 200:
        return _inconclusive(FactId.F5, "need at least 200 aligned points", n=len(x))
    cc = cross_correlation(x, y, config.f5_max_lag)
    lower = -config.f5_band_mult * cc.se
    pos = cc.lags >= 1
    neg = cc.lags <= -1
    frac_pos = float(np.mean(cc.values[pos] < lower[pos]))
    frac_neg = float(np.mean(cc.values[neg] < lower[neg]))
    # the asymmetry is the point: future volatility must respond to returns
    # predominantly, past volatility must not
    status = FactStatus.SUPPORTED if (frac_pos > config.f5_frac_below
                                      and not frac_neg > config.f5_frac_below) \
        else FactStatus.NOT_SUPPORTED
    return FactVerdict(
        FactId.F5, status,
        metrics={"n": cc.n, "frac_below_positive_lags": frac_pos,
                 "frac_below_negative_lags": frac_neg,
                 "ccf_lag1": float(cc.values[cc.lags == 1][0])},
        curves={"leverage_ccf": {"lag": cc.lags, "value": cc.values, "se": cc.se}})


# ---------------------------------------------------------------------------
# F6: volume-volatility correlation
# ---------------------------------------------------------------------------

# pairs-bootstrap resamples per pass: the gathers stay a few MB however
# many resamples the config asks for
_F6_CHUNK = 16


def _pearson_terms(x, y):
    """Numerator and denominator of Pearson's r for each row pair of the
    (rows, n) arrays x and y: the centred cross sum and the square root of
    the product of the centred sums of squares."""
    dx = x - x.mean(axis=1, keepdims=True)
    dy = y - y.mean(axis=1, keepdims=True)
    return (np.einsum("ij,ij->i", dx, dy),
            np.sqrt(np.einsum("ij,ij->i", dx, dx) * np.einsum("ij,ij->i", dy, dy)))


def test_volume_volatility(ctx: SeriesContext) -> FactVerdict:
    """Pearson correlation between per-window traded volume and the window's
    basic volatility, with a pairs-bootstrap confidence interval.

    The observed r and every resample's come from one arithmetic
    (`_pearson_terms`); a zero denominator leaves the observed r undefined
    (inconclusive) and drops a resample.
    """
    series, config = ctx.series, ctx.config
    present = series.volume_present_fraction()
    if present < config.f6_min_volume_fraction:
        return _inconclusive(FactId.F6, f"volume present on {present:.0%} of bars "
                             f"(need {config.f6_min_volume_fraction:.0%})",
                             volume_present_fraction=present)
    w = config.f6_window if config.f6_window is not None else default_window(config.step_seconds)
    vol = rolling_volatility(series, "basic", VolatilityWindow(w, w))
    v = series.volume
    # the sums run on volumes scaled by the power of two that puts the
    # largest finite one below 1, so neither they nor the correlation's
    # products overflow; the scaling is exact and correlation is scale-free,
    # so where the unscaled products stay finite the metrics are the same
    # bits, and the curve gets the unscaled sums
    scale = np.frexp(np.max(v, where=np.isfinite(v), initial=0.0))[1]
    cs = np.concatenate(([0.0], np.nancumsum(np.ldexp(v, -scale))))
    bad = np.concatenate(([0], np.cumsum(np.isnan(v).astype(np.int64))))
    pos = vol.positions
    vsum = cs[pos + 1] - cs[pos - w + 1]
    full = (bad[pos + 1] - bad[pos - w + 1]) == 0
    x = vsum[full]
    y = vol.values[full]
    if len(x) < 30:
        return _inconclusive(FactId.F6, f"only {len(x)} complete volume windows",
                             n=int(len(x)))
    (r_num,), (r_denom,) = _pearson_terms(x[None], y[None])
    if r_denom == 0.0:
        return _inconclusive(FactId.F6, "correlation undefined: zero variance input",
                             n=len(x))
    r = min(1.0, max(-1.0, float(r_num / r_denom)))
    rng = _child_rng(config.seed, 6)
    n_boot = config.f6_n_boot
    num = np.empty(n_boot)
    denom = np.empty(n_boot)
    # the generator carries its state from call to call, so the chunks draw
    # the same indices as one (n_boot, len(x)) draw
    for start in range(0, n_boot, _F6_CHUNK):
        rows = slice(start, min(start + _F6_CHUNK, n_boot))
        idx = rng.integers(0, len(x), size=(rows.stop - start, len(x)))
        num[rows], denom[rows] = _pearson_terms(x[idx], y[idx])
    ok = denom > 0.0
    if not ok.any():
        return _inconclusive(FactId.F6, "no bootstrap resample has a defined correlation",
                             n=len(x))
    r_boot = num[ok] / denom[ok]
    lo, hi = np.quantile(r_boot, [0.025, 0.975])
    status = FactStatus.SUPPORTED if (r > 0.0 and lo > 0.0) \
        else FactStatus.NOT_SUPPORTED
    with np.errstate(over="ignore"):  # a sum beyond the float range is inf
        volume_sums = np.ldexp(x, scale)
    return FactVerdict(
        FactId.F6, status,
        metrics={"n": len(x), "pearson_r": r, "boot_ci_low": float(lo),
                 "boot_ci_high": float(hi), "volume_present_fraction": present},
        curves={"volume_volatility": {"volume": volume_sums, "volatility": y}})


# ---------------------------------------------------------------------------
# F7/F8: heavy tails, conditional and unconditional
# ---------------------------------------------------------------------------

def _tail_side_check(fit, ref_fit, config: FactConfig) -> bool:
    joint = math.hypot(fit.alpha_se, ref_fit.alpha_se)
    return (fit.r_squared >= config.tail_r2_min
            and fit.alpha < ref_fit.alpha - config.tail_se_mult * joint)


def _fit_both_sides(z: np.ndarray, fraction: float):
    return (fit_tail_exponent(z, "left", fraction),
            fit_tail_exponent(z, "right", fraction))


def _tail_curves(left, right) -> dict:
    """The points each side's tail fit regressed on, for plotting."""
    return {"tail_left": {"value": left.values, "exceedance": left.exceedance},
            "tail_right": {"value": right.values, "exceedance": right.exceedance}}


def _heavy_tail_verdict(fact: FactId, z: np.ndarray, sides: tuple, reference: np.ndarray,
                        config: FactConfig, **extra) -> FactVerdict:
    """Supported when each tail of z (`sides`: its left and right fits) fits
    well and is heavier, beyond the joint standard error, than the same tail
    of `reference`, a Gaussian sample run through z's pipeline.  `extra`
    metrics follow the shared ones."""
    left, right = sides
    ref_left, ref_right = _fit_both_sides(reference, config.tail_fraction)
    heavy = (_tail_side_check(left, ref_left, config)
             and _tail_side_check(right, ref_right, config))
    return FactVerdict(
        fact, FactStatus.SUPPORTED if heavy else FactStatus.NOT_SUPPORTED,
        metrics={"n": len(z), "alpha_left": left.alpha, "alpha_right": right.alpha,
                 "alpha_se_left": left.alpha_se, "alpha_se_right": right.alpha_se,
                 "r2_left": left.r_squared, "r2_right": right.r_squared,
                 "ref_alpha_left": ref_left.alpha, "ref_alpha_right": ref_right.alpha,
                 **extra},
        curves=_tail_curves(left, right))


def test_unconditional_tail(ctx: SeriesContext) -> FactVerdict:
    """Tail exponents of volatility-standardized returns, both sides, against
    a Gaussian sample pushed through the identical pipeline."""
    config, r = ctx.config, ctx.returns
    if len(r) < config.f8_min_returns:
        return _inconclusive(FactId.F8, f"need at least {config.f8_min_returns} returns",
                             n=len(r))
    sides = ctx.standardized_tails
    g = _child_rng(config.seed, 8).standard_normal(len(r))
    return _heavy_tail_verdict(FactId.F8, ctx.standardized, sides,
                               standardized_returns(g, config.std_window), config,
                               n_tail=sides[0].n_tail)


def test_conditional_tail(ctx: SeriesContext) -> FactVerdict:
    """Tail exponents of GARCH-filter residuals: heavy tails that survive the
    clustering correction."""
    config, garch_fit = ctx.config, ctx.garch_fit
    if not garch_fit.converged:
        return _inconclusive(FactId.F7, "GARCH fit did not converge", n=len(ctx.returns))
    z = ctx.residuals
    sides = _fit_both_sides(z, config.tail_fraction)
    extra = {"garch_alpha": garch_fit.params.alpha, "garch_beta": garch_fit.params.beta}
    # the unconditional exponents alongside, when the series supports them
    try:
        ul, ur = ctx.standardized_tails
        extra.update(alpha_left_unconditional=ul.alpha, alpha_right_unconditional=ur.alpha)
    except (InsufficientDataError, DegenerateInputError):
        pass
    g = _child_rng(config.seed, 7).standard_normal(len(z))
    return _heavy_tail_verdict(FactId.F7, z, sides, g, config, **extra)


# ---------------------------------------------------------------------------
# F9: gain/loss asymmetry
# ---------------------------------------------------------------------------

def test_gain_loss_asymmetry(ctx: SeriesContext) -> FactVerdict:
    """Left tail heavier than right on aggregated standardized returns.

    Sign asymmetry lives in the interplay between a shock and the volatility
    that follows it, so single-step marginals are symmetric even for models
    with leverage; summing f9_aggregate consecutive standardized returns
    exposes it.  The verdict comes from this unconditional pipeline; the
    GARCH-residual pipeline is reported alongside when the GARCH fit
    converges.
    """
    config = ctx.config
    k = config.f9_aggregate
    zz = block_sums(ctx.standardized, k)
    left, right = _fit_both_sides(zz, config.tail_fraction)
    gap = right.alpha - left.alpha
    joint_se = math.hypot(left.alpha_se, right.alpha_se)
    status = FactStatus.SUPPORTED if (left.alpha < right.alpha
                                      and gap > config.f9_se_mult * joint_se) \
        else FactStatus.NOT_SUPPORTED
    metrics = {"n": len(zz), "aggregate": k, "alpha_left": left.alpha,
               "alpha_right": right.alpha, "gap": gap, "joint_se": joint_se}
    notes = []
    try:
        converged = ctx.garch_fit.converged
    except (InsufficientDataError, DegenerateInputError):
        converged = False
    if converged:
        try:
            cl, cr = _fit_both_sides(block_sums(ctx.residuals, k), config.tail_fraction)
            metrics["alpha_left_conditional"] = cl.alpha
            metrics["alpha_right_conditional"] = cr.alpha
        except (InsufficientDataError, DegenerateInputError) as e:
            notes.append(f"conditional pipeline unavailable: {e}")
    return FactVerdict(
        FactId.F9, status, metrics,
        curves=_tail_curves(left, right),
        notes=tuple(notes))


# ---------------------------------------------------------------------------
# F10: aggregational gaussianity
# ---------------------------------------------------------------------------

def test_aggregational_gaussianity(ctx: SeriesContext) -> FactVerdict:
    """Studentized k-step returns over a geometric ladder of k; normality
    statistics must fall (or stay at noise level) as k grows, and the largest
    scale must not reject at 5%."""
    config, r = ctx.config, ctx.returns
    ladder = []
    k = 2
    while len(r) // k >= config.f10_min_samples:
        ladder.append(k)
        k *= config.f10_ladder_ratio
    if len(ladder) < 2:
        return _inconclusive(FactId.F10, "series too short for an aggregation ladder",
                             n=len(r))
    ad_stats, ad_crit, ad_rej, ks_stats = [], [], [], []
    curves = {}
    metrics = {"n": len(r), "n_scales": len(ladder)}
    for k in ladder:
        agg = block_sums(r, k)
        s = agg.std(ddof=1)
        if s == 0.0:
            return _inconclusive(FactId.F10, f"degenerate aggregate at k={k}", n=len(agg))
        z = (agg - agg.mean()) / s
        ad = anderson_darling_normal(z)
        ks = ks_test_normal(z)
        ad_stats.append(ad.statistic)
        ad_crit.append(ad.critical_values["5%"])
        ad_rej.append(ad.reject["5%"])
        ks_stats.append(ks.statistic)
        metrics[f"ad_k{k}"] = ad.statistic
        qq = qq_data(z)
        step = max(1, len(qq.theoretical) // 1000)
        curves[f"qq_k{k}"] = {"theoretical": qq.theoretical[::step],
                              "empirical": qq.empirical[::step]}
    steps_ok = []
    for i in range(len(ladder) - 1):
        noise_floor = ad_stats[i] <= ad_crit[i] and ad_stats[i + 1] <= ad_crit[i + 1]
        steps_ok.append(ad_stats[i + 1] <= ad_stats[i] or noise_floor)
    frac_ok = float(np.mean(steps_ok))
    largest_ok = not ad_rej[-1]
    status = FactStatus.SUPPORTED if (frac_ok >= config.f10_min_step_frac and largest_ok) \
        else FactStatus.NOT_SUPPORTED
    metrics.update(frac_decreasing_steps=frac_ok, largest_scale_rejected=bool(ad_rej[-1]),
                   largest_scale=ladder[-1])
    curves["normality_by_scale"] = {
        "scale": np.asarray(ladder, dtype=float),
        "ad_statistic": np.asarray(ad_stats),
        "ad_critical_5pct": np.asarray(ad_crit),
        "ks_statistic": np.asarray(ks_stats),
    }
    return FactVerdict(FactId.F10, status, metrics, curves)


# ---------------------------------------------------------------------------
# F11: time-reversal asymmetry
# ---------------------------------------------------------------------------

# bootstrap rows of block starts drawn per call
_F11_DRAW_ROWS = 16
# drawn resamples per `kernels.zumbach_boot` call, a multiple of
# _F11_DRAW_ROWS: the default n_boot runs as one call
_F11_BATCH_ROWS = 1024
# a null band at most this many times n * eps wide is roundoff
# (`test_time_scale_asymmetry`)
_BAND_FLOOR_ULPS = 16


def zumbach_statistic(returns, vol, n_lags: Optional[int] = None,
                      config: FactConfig = DEFAULT_CONFIG) -> ZumbachResult:
    """Z(delta) with a circular-block-bootstrap null band.

    Z(delta) is the correlation-scale difference between "squared volatility
    explained by past squared returns" and the time-reversed pairing; see
    kernels.zumbach_boot for the exact normalization.  The band is the 95%
    spread of Z on joint block resamples of the aligned pair, centered at
    zero: resampling preserves the series' dependence (and hence the sampling
    noise of Z) while the centering removes the asymmetry itself.  The band
    and `n_boot` count only the resamples with a Z (`kernels.zumbach_boot`);
    fewer than half of them raise DegenerateInputError.

    Z itself is one more row of the same kernel arithmetic: after the drawn
    resamples of the last kernel call, the blocks laid end to end from 0,
    which rebuild the series.
    """
    n_lags = config.f11_lags if n_lags is None else int(n_lags)
    r = _values(returns)
    v = _values(vol)
    if hasattr(vol, "positions"):
        r = r[vol.positions - 1]
    if len(r) != len(v):
        raise ValueError("returns and volatility are not aligned")
    n = len(v)
    if n_lags < 1 or n_lags >= n / 10:
        raise ValueError("need 1 <= n_lags < n/10")
    a = v * v
    b = r * r
    if a.std() == 0.0 or b.std() == 0.0:
        raise DegenerateInputError("degenerate variance: Z undefined")
    block_len = math.ceil(n ** (1.0 / 3.0))
    n_blocks = math.ceil(n / block_len)
    n_boot = config.f11_n_boot
    rng = _child_rng(config.seed, 11)
    # The resamples run in batches of _F11_BATCH_ROWS through one buffer of
    # starts, which does not grow with n_boot.  int64 draws, the same stream
    # as one (n_boot, n_blocks) draw, kept as int32 (every start is below n).
    # The last batch ends with the identity resample, whose Z is the observed
    # one.
    boots = np.empty((n_boot + 1, n_lags))
    starts = np.empty((min(n_boot, _F11_BATCH_ROWS) + 1, n_blocks), dtype=np.int32)
    for lo in range(0, n_boot, _F11_BATCH_ROWS):
        hi = min(lo + _F11_BATCH_ROWS, n_boot)
        batch = starts[:hi - lo + (hi == n_boot)]
        for row in range(0, hi - lo, _F11_DRAW_ROWS):
            rows = batch[row:min(row + _F11_DRAW_ROWS, hi - lo)]
            rows[:] = rng.integers(0, n, size=rows.shape, dtype=np.int64)
        if hi == n_boot:
            batch[-1] = np.arange(n_blocks) * block_len
        boots[lo:lo + len(batch)] = kernels.zumbach_boot(a, b, batch, block_len, n_lags)
    boots, z = boots[:-1], boots[-1]
    if np.isnan(z).any():
        raise DegenerateInputError("degenerate variance: Z undefined")
    # a resample whose a or b is constant up to roundoff (one that misses a
    # series' only jump) has no Z: its row is NaN and is dropped, as F6
    # drops zero denominators
    boots = boots[~np.isnan(boots).any(axis=1)]
    if 2 * len(boots) < n_boot:
        raise DegenerateInputError(f"only {len(boots)} of {n_boot} bootstrap "
                                   "resamples have a defined Z")
    dev = boots - boots.mean(axis=0)
    tail = (1.0 - config.f11_level) / 2.0
    lo = np.quantile(dev, tail, axis=0)
    hi = np.quantile(dev, 1.0 - tail, axis=0)
    return ZumbachResult(lags=np.arange(1, n_lags + 1), z=z, band_low=lo, band_high=hi,
                         n=n, block_len=block_len, n_boot=len(boots))


def test_time_scale_asymmetry(ctx: SeriesContext) -> FactVerdict:
    """Supported when Z escapes its null band at >= half the lags, always on
    the same side.

    Inconclusive when the band has zero width up to roundoff at some lag,
    where every Z would count as outside.  Z is on the correlation scale,
    and each value is a ratio of sums over the series' n bars, which carry
    about n ulps of roundoff; so a width of at most _BAND_FLOOR_ULPS * n *
    eps (2.1e-11 at 6,000 bars, 3.5e-10 at 1e5) is zero.  A real band's
    width shrinks like 1 / sqrt(n), and is near 1e-2 at 1e5 bars.  A band
    collapses when nearly every resample's Z comes from the same few bars,
    as on a series whose volatility is constant but for one jump.
    """
    config, r = ctx.config, ctx.returns
    vol = ctx.parkinson
    if len(vol.values) < 10 * (config.f11_lags + 1):
        return _inconclusive(FactId.F11, "series too short for the lag range",
                             n=len(vol.values))
    zr = zumbach_statistic(r, vol, config=config)
    flat = zr.band_high - zr.band_low <= _BAND_FLOOR_ULPS * zr.n * np.finfo(float).eps
    if flat.any():
        return _inconclusive(FactId.F11, f"null band of zero width at lag {zr.lags[flat][0]}",
                             n=zr.n)
    above = zr.z > zr.band_high
    below = zr.z < zr.band_low
    outside = above | below
    frac = float(outside.mean())
    consistent = not (above.any() and below.any())
    status = FactStatus.SUPPORTED if (frac >= config.f11_min_outside and outside.any()
                                      and consistent) else FactStatus.NOT_SUPPORTED
    sign = 0
    if outside.any():
        sign = 1 if above.sum() >= below.sum() else -1
    return FactVerdict(
        FactId.F11, status,
        metrics={"n": zr.n, "frac_outside_band": frac, "sign": sign,
                 "mean_z": float(zr.z.mean()), "block_len": zr.block_len},
        curves={"zumbach": {"lag": zr.lags, "value": zr.z, "band_low": zr.band_low,
                            "band_high": zr.band_high}})


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

# names, not functions: a wrapper rebound to the module attribute must be what runs
_TESTS = {
    FactId.F1: "test_absence_autocorrelation",
    FactId.F2: "test_slow_decay",
    FactId.F3: "test_intermittency",
    FactId.F4: "test_volatility_clustering",
    FactId.F5: "test_leverage",
    FactId.F6: "test_volume_volatility",
    FactId.F7: "test_conditional_tail",
    FactId.F8: "test_unconditional_tail",
    FactId.F9: "test_gain_loss_asymmetry",
    FactId.F10: "test_aggregational_gaussianity",
    FactId.F11: "test_time_scale_asymmetry",
}


def _inconclusive_on_error(fact: FactId, test):
    """`test`, with any library error it raises turned into an inconclusive
    verdict noted `<ErrorType>: <message>`, `n` the series' return count."""
    @functools.wraps(test)
    def run(ctx: SeriesContext) -> FactVerdict:
        try:
            return test(ctx)
        except StylfactsError as e:
            return _inconclusive(fact, f"{type(e).__name__}: {e}", n=len(ctx.series) - 1)
    return run


# every test is wrapped once, here: a direct call gives the driver's verdict
globals().update({name: _inconclusive_on_error(fact, globals()[name])
                  for fact, name in _TESTS.items()})


def run_all_facts(series: PriceSeries, config: FactConfig = DEFAULT_CONFIG,
                  facts=None) -> dict:
    """Run the selected facts (default all eleven) on one series through one
    SeriesContext, so the data they share is computed once.  Returns
    {FactId: FactVerdict} in fact order."""
    selected = tuple(FactId) if facts is None else tuple(FactId(f) for f in facts)
    ctx = SeriesContext(series, config)
    out = {}
    for fact in FactId:
        if fact in selected:
            out[fact] = globals()[_TESTS[fact]](ctx)
    return out
