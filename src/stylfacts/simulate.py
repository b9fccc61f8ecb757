"""Synthetic OHLCV generators: GBM, OU on the log price, GARCH(1,1), and
GJR-GARCH, all sharing one bar-building convention.

Each model produces per-step log returns r_t and a per-step volatility s_t.
A run of n_steps steps emits n_steps + 1 bars: a flat seed bar holding the
start price, then one bar per step, so close-to-close log returns recover
the model increments exactly.  A bar covers one model step: the step is
split into `substeps` equal
slices whose increments sum to r_t exactly (Brownian-bridge conditioning of
the substep grid on the endpoints), and high/low come from one of

- "bridge": per-slice extremes drawn from the exact distribution of a
  Brownian extreme conditional on the slice endpoints, so the bar range has
  no grid-discretization bias;
- "substep": max/min over the substep grid points only.  Cheaper and simple
  to reason about, but systematically narrow; range-based estimators will
  read low with this mode.

Within-bar dynamics are Brownian with the step's own volatility for every
model, which treats volatility (GARCH) and drift pull (OU) as constant inside
one bar.

Each spec class (GbmSpec, OuSpec, GarchSpec, GjrSpec) is the one declaration
of its model: its fields are the model's parameters, each with its kind and
range (`errors.knob`), and its `_path` method draws the log-price path and
the per-step volatilities.  `simulate(spec)` is the entry point for bars;
`log_path(spec)` returns the log-price path alone, the one `simulate(spec)`
builds its closes on, for a caller that needs only returns (F3's matched
benchmarks).

Determinism: all draws come from a single numpy Generator seeded by
SeedSequence(seed).  Draw order is fixed: model innovations, then substep
normals, then the high uniforms, then the low uniforms, then volume noise.
Equal specs give byte-identical series.

Memory: the draws are whole n x substeps arrays (at 1e5 steps and 16
substeps, 12.8 MB each: 38.4 MB for the normals and the two uniforms of the
bridge), drawn before any bar is built, so the stream does not depend on
how the bars are built.  Everything derived from them (increments, the
substep grid, the extremes and their log and sqrt temporaries) is built a
block of about 2^16 elements (rows x substeps) at a time.
`simulate(GbmSpec(n_steps=100_000))` peaks at 46 MB of allocations
(`tracemalloc`), against 146 MB with every derived array whole, and a
`simulate --n 100000` process at 84 MiB of RSS against 180 MiB (2-vCPU
host).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import PriceRangeError, check_knobs, knob
from .series import PriceSeries

EXTREME_MODES = ("bridge", "substep")
VOLUME_MODES = ("none", "proportional")
INNOVATIONS = ("normal", "student_t")

VOLUME_SCALE = 1e6

# elements (rows x substeps) per block of `_bars_from_steps`: a block's
# temporaries stay near 0.5 MB each at any substep count
_BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class _SimCommon:
    n_steps: int = knob(low=1)
    seed: int = knob(0, 0)
    substeps: int = knob(16, 1)
    extremes: str = knob("bridge", choices=EXTREME_MODES)
    step_seconds: int = knob(86400, 1)
    t0: int = knob(0)
    volume_mode: str = knob("proportional", choices=VOLUME_MODES)

    def __post_init__(self):
        check_knobs(self)
        if not -2**63 <= self.t0 <= 2**63 - 1 - self.step_seconds * self.n_steps:
            raise ValueError("timestamps t0 + k * step_seconds must fit in int64")


@dataclass(frozen=True)
class GbmSpec(_SimCommon):
    """dX = mu dt + sigma dW on the log price, unit time step per bar.

    mu is the drift of the log price itself (per step); no sigma^2/2
    adjustment is applied.
    """
    mu: float = knob(0.0)
    sigma: float = knob(0.01, 0, closed=True)
    p0: float = knob(1.0, 0)

    def _path(self, rng):
        r = self.mu + self.sigma * rng.standard_normal(self.n_steps)
        return _cumulate(math.log(self.p0), r), self.sigma


@dataclass(frozen=True)
class OuSpec(_SimCommon):
    """dX = theta (mu - X) dt + sigma dW on the log price, exact one-step
    discretization x_{t+1} = mu + (x_t - mu) e^-theta + eta_t."""
    theta: float = knob(0.05, 0)
    mu: float = knob(0.0)
    sigma: float = knob(0.01, 0, closed=True)
    x0: Optional[float] = knob(None)  # defaults to mu

    def _path(self, rng):
        z = rng.standard_normal(self.n_steps)
        b = math.exp(-self.theta)
        # exact transition noise: Var = sigma^2 (1 - b^2) / (2 theta)
        trans_sd = self.sigma * math.sqrt((1.0 - b * b) / (2.0 * self.theta))
        x0 = self.mu if self.x0 is None else self.x0
        return kernels.ou_path(z, x0, self.mu, b, trans_sd), trans_sd


@dataclass(frozen=True)
class GarchSpec(_SimCommon):
    """r_t = mean + sqrt(h_t) z_t, h_{t+1} = omega + alpha (r_t - mean)^2 + beta h_t."""
    omega: float = knob(1e-6, 0)
    alpha: float = knob(0.10, 0, closed=True)
    beta: float = knob(0.85, 0, closed=True)
    mean: float = knob(0.0)
    innovation: str = knob("normal", choices=INNOVATIONS)
    df: Optional[float] = knob(None, 2)  # student_t: unit variance needs df > 2
    burn_in: int = knob(1000, 0)
    p0: float = knob(1.0, 0)

    gamma = 0.0  # the leverage term: a GjrSpec field, fixed at 0 here

    def __post_init__(self):
        super().__post_init__()
        if self.alpha + self.gamma < 0.0:
            raise ValueError("alpha + gamma must be >= 0")
        if self.alpha + 0.5 * self.gamma + self.beta >= 1.0:
            raise ValueError("stationarity requires alpha + gamma/2 + beta < 1")
        if self.innovation == "student_t" and self.df is None:
            raise ValueError("student_t innovations need df > 2 for unit variance")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - 0.5 * self.gamma - self.beta)

    def _path(self, rng):
        size = self.burn_in + self.n_steps
        if self.innovation == "student_t":
            z = rng.standard_t(self.df, size=size) * math.sqrt((self.df - 2.0) / self.df)
        else:
            z = rng.standard_normal(size)
        eps, h = kernels.garch_sim(z, self.omega, self.alpha, self.gamma, self.beta,
                                   self.unconditional_variance, self.burn_in)
        return _cumulate(math.log(self.p0), self.mean + eps), np.sqrt(h)


@dataclass(frozen=True)
class GjrSpec(GarchSpec):
    """GARCH(1,1) with the leverage term gamma active on negative returns:
    h_{t+1} = omega + (alpha + gamma 1[r_t < mean]) (r_t - mean)^2 + beta h_t."""
    # half of gamma moves from alpha so the default stays stationary
    alpha: float = knob(0.05, 0, closed=True)
    gamma: float = knob(0.10)


def _bars_from_steps(x, step_vols, rng, spec) -> PriceSeries:
    """Build OHLCV bars over a log-price path x (length n+1, x[0] = start).

    Emits n+1 bars: a flat seed bar at t0 holding the start price, then one
    bar per step, so close-to-close log returns reproduce every step
    increment.  Bar t opens at exp(x[t-1]) and closes at exp(x[t]).  Sub-bar
    structure and extremes per the module docstring.
    """
    n = len(x) - 1
    m = spec.substeps
    r = np.diff(x)
    s = np.broadcast_to(np.asarray(step_vols, dtype=float), (n,))
    bridge = spec.extremes == "bridge"

    # the draws whole, in the module docstring's order; every array derived
    # from them a block of rows at a time.  Each row's arithmetic (its mean,
    # cumsum, max and min) runs alone, so any blocking gives the same bits.
    w = rng.standard_normal((n, m))
    u = rng.random((n, m)) if bridge else None
    v = rng.random((n, m)) if bridge else None
    hi = np.empty(n)
    lo = np.empty(n)
    step = max(1, _BLOCK_ELEMENTS // m)
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        wb, sb, x0 = w[rows], s[rows, None], x[rows, None]
        inc = r[rows, None] / m + (sb / math.sqrt(m)) * (wb - wb.mean(axis=1, keepdims=True))
        sub = np.empty((inc.shape[0], m + 1))
        sub[:, :1] = x0
        np.cumsum(inc, axis=1, out=sub[:, 1:])
        sub[:, 1:] += x0
        if bridge:
            dx = np.diff(sub, axis=1)
            var_sub = sb * sb / m
            mid = sub[:, :-1] + sub[:, 1:]
            # 1 - random() lies in (0, 1]: log never overflows
            hi[rows] = (0.5 * (mid + np.sqrt(dx * dx - 2.0 * var_sub * np.log(1.0 - u[rows])))
                        ).max(axis=1)
            lo[rows] = (0.5 * (mid - np.sqrt(dx * dx - 2.0 * var_sub * np.log(1.0 - v[rows])))
                        ).min(axis=1)
        else:
            hi[rows] = sub.max(axis=1)
            lo[rows] = sub.min(axis=1)
    del w, u, v

    # substep roundoff must not leave close/open outside [low, high]
    hi = np.maximum(hi, np.maximum(x[:-1], x[1:]))
    lo = np.minimum(lo, np.minimum(x[:-1], x[1:]))
    # every price lies between exp(lo.min()) and exp(hi.max()); NaN fails too
    if not (np.exp(lo.min()) > 0.0 and np.exp(hi.max()) < np.inf):
        raise PriceRangeError(f"{type(spec).__name__} price path leaves the float range "
                              f"(log prices from {lo.min():.4g} to {hi.max():.4g})")

    p0 = math.exp(x[0])
    open_ = np.concatenate(([p0], np.exp(x[:-1])))
    close = np.concatenate(([p0], np.exp(x[1:])))
    high = np.concatenate(([p0], np.exp(hi)))
    low = np.concatenate(([p0], np.exp(lo)))

    if spec.volume_mode == "proportional":
        r_abs = np.abs(r)
        noise_sd = 0.25 * VOLUME_SCALE * float(r_abs.mean())
        v = VOLUME_SCALE * r_abs + np.abs(rng.standard_normal(n) * noise_sd)
        # the seed bar spans no trading interval
        volume = np.concatenate(([0.0], v))
    else:
        volume = np.full(n + 1, np.nan)

    ts = spec.t0 + spec.step_seconds * np.arange(n + 1, dtype=np.int64)
    return PriceSeries(timestamps=ts, open_=open_, high=high, low=low, close=close,
                       volume=volume)


def _cumulate(x0: float, r: np.ndarray) -> np.ndarray:
    """The log-price path x0, x0 + r_1, x0 + r_1 + r_2, ... (len(r) + 1 points)."""
    x = np.empty(len(r) + 1)
    x[0] = x0
    np.cumsum(r, out=x[1:])
    x[1:] += x0
    return x


def simulate(spec: _SimCommon) -> PriceSeries:
    """Draw the spec's log-price path and step volatilities, then its bars.

    A spec whose prices leave the float range, as a finite but huge sigma,
    mu or omega makes them, raises PriceRangeError (a ValueError) before any
    bar is built; the arithmetic that overflows on the way warns nothing.
    """
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    with np.errstate(over="ignore", invalid="ignore"):
        x, step_vols = spec._path(rng)
        return _bars_from_steps(x, step_vols, rng, spec)


def log_path(spec: _SimCommon) -> np.ndarray:
    """The spec's log-price path (n_steps + 1 points), bit for bit the one
    simulate(spec) builds its closes on, with no bars built; so no price is
    formed and no PriceRangeError is raised."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    with np.errstate(over="ignore", invalid="ignore"):
        return spec._path(rng)[0]
