"""Hot numeric kernels, one implementation each.

Kernels live here because they are the measured hot spots: the GARCH
likelihood filter runs once per optimizer evaluation (thousands of times per
fit), the simulators are sequential recursions, rolling window estimators
touch every bar, and the Zumbach null band resamples the series a thousand
times.  `benchmarks/bench_kernels.py` times each kernel and checks it against
its twin.

Every kernel except `garch_sim` has a `_*_loop` twin that spells out the
arithmetic one element at a time; the tests hold the kernels to the twins.
The filters, the OU path and the rolling moments run the twin's arithmetic
in another order (IIR filters, window views), which moves results at
roundoff.  `garch_sim` is its own reference: the coefficient of its variance
recursion changes with every draw, so no fixed-coefficient filter applies
and it stays a plain loop.

`zumbach_boot` computes the same statistic as `_zumbach_boot_loop` by
another decomposition: it never builds a resample.  Pairs of bars inside one
block are read from a table of circular prefix-sum differences, one row per
possible block start; pairs that straddle a block boundary come from one
small matrix product per resample (see its docstring).  That takes
O(n / block_len * n_lags^2) work per resample instead of O(n * n_lags).
When n_lags exceeds block_len, which happens for series shorter than about
n_lags^3, a pair can span several blocks and the kernel falls back to
gathering each resample in full (`_zumbach_boot_gather`).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.signal import lfilter

# There is no compiled path.  perfbench/run.py's machine probe still reads
# this flag into every result record.
USE_NUMBA = False


# ---------------------------------------------------------------------------
# GARCH conditional-variance filter
# ---------------------------------------------------------------------------

def garch_filter(eps2, omega, alpha, beta, h1):
    """Conditional variance path h_t for demeaned squared returns eps2.

    h[0] = h1, h[t] = omega + alpha*eps2[t-1] + beta*h[t-1].  The recursion is
    linear in h, so it runs through a first-order IIR filter.
    """
    forcing = np.empty_like(eps2)
    forcing[0] = h1
    forcing[1:] = omega + alpha * eps2[:-1]
    return lfilter([1.0], [1.0, -beta], forcing)


def _garch_filter_loop(eps2, omega, alpha, beta, h1):
    n = eps2.shape[0]
    h = np.empty(n)
    h[0] = h1
    for t in range(1, n):
        h[t] = omega + alpha * eps2[t - 1] + beta * h[t - 1]
    return h


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------

def garch_sim(z, omega, alpha, gamma, beta, h1, burn):
    """Simulate r_t = sqrt(h_t) z_t; gamma=0 gives plain GARCH.

    z covers burn + n steps; the first `burn` draws warm up the recursion and
    are discarded.  Returns (r, h) for the kept steps.
    """
    total = z.shape[0]
    n = total - burn
    r = np.empty(n)
    h_out = np.empty(n)
    h = h1
    for t in range(total):
        zt = z[t]
        rt = np.sqrt(h) * zt
        if t >= burn:
            r[t - burn] = rt
            h_out[t - burn] = h
        h = omega + (alpha + (gamma if zt < 0.0 else 0.0)) * rt * rt + beta * h
    return r, h_out


def ou_path(z, x0, mu, b, noise_scale):
    """Exact OU discretization x_{t+1} = mu + (x_t - mu) * b + noise_scale * z_t.

    Returns the path including x0 (length len(z) + 1).  Linear recursion, so
    it runs as an IIR filter on the deviations from mu.
    """
    dev = lfilter([1.0], [1.0, -b], noise_scale * z, zi=np.array([b * (x0 - mu)]))[0]
    out = np.empty(z.shape[0] + 1)
    out[0] = x0
    out[1:] = mu + dev
    return out


def _ou_path_loop(z, x0, mu, b, noise_scale):
    n = z.shape[0]
    out = np.empty(n + 1)
    out[0] = x0
    x = x0
    for t in range(n):
        x = mu + (x - mu) * b + noise_scale * z[t]
        out[t + 1] = x
    return out


# ---------------------------------------------------------------------------
# Rolling window reductions
# ---------------------------------------------------------------------------

def rolling_var(x, n, stride):
    """Sample variance (ddof=1) over windows [i*stride, i*stride + n)."""
    win = sliding_window_view(x, n)[::stride]
    return win.var(axis=1, ddof=1)


def _rolling_var_loop(x, n, stride):
    count = (x.shape[0] - n) // stride + 1
    out = np.empty(count)
    for i in range(count):
        s = i * stride
        m = 0.0
        for j in range(s, s + n):
            m += x[j]
        m /= n
        acc = 0.0
        for j in range(s, s + n):
            d = x[j] - m
            acc += d * d
        out[i] = acc / (n - 1)
    return out


def rolling_mean(x, n, stride):
    """Plain mean over the same window layout (feeds Parkinson / RS)."""
    win = sliding_window_view(x, n)[::stride]
    return win.mean(axis=1)


def _rolling_mean_loop(x, n, stride):
    count = (x.shape[0] - n) // stride + 1
    out = np.empty(count)
    for i in range(count):
        s = i * stride
        acc = 0.0
        for j in range(s, s + n):
            acc += x[j]
        out[i] = acc / n
    return out


# ---------------------------------------------------------------------------
# Zumbach statistic and its block-bootstrap null band
# ---------------------------------------------------------------------------

def zumbach_z(a, b, n_lags):
    """Z(delta) = C(delta) - C(-delta) for delta = 1..n_lags.

    a is the (squared) volatility proxy, b the squared returns, aligned on the
    same grid.  C(delta) pairs a_t with b_{t-delta} and is normalized by
    (n_valid * std(a) * std(b)), population std, mean-centered in a.  Centering
    only a is enough: sum (a_t - abar) * b equals the full cross-covariance.
    """
    n = a.shape[0]
    abar = a.mean()
    sa = a.std()
    sb = b.std()
    z = np.empty(n_lags)
    for lag in range(1, n_lags + 1):
        past = np.dot(a[lag:] - abar, b[:-lag])
        futr = np.dot(a[:-lag] - abar, b[lag:])
        z[lag - 1] = (past - futr) / ((n - lag) * sa * sb)
    return z


def _zumbach_boot_loop(a, b, starts, block_len, n_lags):
    """Z on circular-block resamples of the aligned pair (a, b).

    starts[r, j] is the start index of block j in resample r; blocks are
    copied jointly from both series so their cross-dependence survives.
    Returns (n_resamples, n_lags).
    """
    n = a.shape[0]
    n_res, n_blocks = starts.shape
    out = np.empty((n_res, n_lags))
    ar = np.empty(n)
    br = np.empty(n)
    for r in range(n_res):
        pos = 0
        for j in range(n_blocks):
            s = starts[r, j]
            for k in range(block_len):
                if pos < n:
                    idx = s + k
                    if idx >= n:
                        idx -= n
                    ar[pos] = a[idx]
                    br[pos] = b[idx]
                    pos += 1
        sa = 0.0
        saa = 0.0
        sb = 0.0
        sbb = 0.0
        for t in range(n):
            sa += ar[t]
            saa += ar[t] * ar[t]
            sb += br[t]
            sbb += br[t] * br[t]
        abar = sa / n
        astd = np.sqrt(saa / n - abar * abar)
        bstd = np.sqrt(sbb / n - (sb / n) * (sb / n))
        for lag in range(1, n_lags + 1):
            s_ab_past = 0.0
            s_b_past = 0.0
            s_ab_futr = 0.0
            s_b_futr = 0.0
            for t in range(lag, n):
                s_ab_past += ar[t] * br[t - lag]
                s_b_past += br[t - lag]
                s_ab_futr += ar[t - lag] * br[t]
                s_b_futr += br[t]
            c_past = (s_ab_past - abar * s_b_past)
            c_futr = (s_ab_futr - abar * s_b_futr)
            out[r, lag - 1] = (c_past - c_futr) / ((n - lag) * astd * bstd)
    return out


def zumbach_boot(a, b, starts, block_len, n_lags, chunk=16):
    """Z on circular-block resamples (see _zumbach_boot_loop) from block
    range sums, without materialising any resample.

    For each lag l the numerator is D_l - abar * (sum of the resample's first
    l values of b - sum of its last l), where D_l = sum_t a_t b_{t-l} -
    a_{t-l} b_t.  A pair (t, t-l) either lies inside one block, where D_l's
    share is a range sum of c_l[i] = a_i b_{i-l} - a_{i-l} b_i over the
    circular source index, or straddles the boundary between block j-1 and
    block j (l <= block_len, so never more than one).  The straddling pairs
    for every lag at once come from one product of the first n_lags values
    of each block against the last n_lags of the block before it: lag l is
    that product's diagonal at offset n_lags - l.  With n_lags > block_len a
    pair can span several blocks, and the direct gather takes over.
    """
    if n_lags > block_len:
        return _zumbach_boot_gather(a, b, starts, block_len, n_lags)
    n = a.shape[0]
    w = n_lags
    n_res, n_blocks = starts.shape
    last_len = n - (n_blocks - 1) * block_len
    lags = np.arange(1, w + 1)

    # Block table: one row per circular start s.  Column l-1 is the part of
    # D_l inside a block of length m at s, sum_{k=l}^{m-1} c_l[s+k]; the last
    # four are the block sums of ac, ac^2, bc, bc^2, where centering (the
    # variances are shift-invariant) keeps sum(x^2)/n - mean^2 from cancelling
    # digits.  Both come as differences of prefix sums over the source index,
    # extended circularly by one block (and by n_lags before it for the
    # lagged factors).
    ext = np.arange(-w, n + block_len) % n
    ae, be = a[ext], b[ext]
    a_mean = a.mean()
    ac = ae[w:] - a_mean
    bc = be[w:] - b.mean()
    cols = [ae[w:] * be[w - lag:-lag] - ae[w - lag:-lag] * be[w:] for lag in lags]
    cols += [ac, ac * ac, bc, bc * bc]
    prefix = np.zeros((n + block_len + 1, w + 4))
    np.cumsum(np.stack(cols, axis=1), axis=0, out=prefix[1:])
    src = np.arange(n)[:, None]
    first = np.concatenate((lags, np.zeros(4, dtype=np.int64)))
    col = np.arange(w + 4)

    def block_table(m):
        return prefix[m:m + n] - prefix[src + np.minimum(first, m), col]

    full = block_table(block_len)
    last = full if last_len == block_len else block_table(last_len)

    # n_lags-long windows at every circular start: a block's head as (a, b)
    # and the previous block's tail as (b, -a), so that one contraction over
    # blocks gives sum_j head_a[k] tail_b[k'] - tail_a[k'] head_b[k].
    aw = sliding_window_view(ae[w:n + 2 * w - 1], w)
    bw = sliding_window_view(be[w:n + 2 * w - 1], w)
    heads = np.concatenate((aw, bw), axis=1)
    tails = np.concatenate((bw, -aw), axis=1)
    # where the resample's first and last n_lags values of b come from
    edge_block, edge_off = np.divmod(np.r_[0:w, n - w:n], block_len)
    ones = np.ones(n_blocks - 1)

    out = np.empty((n_res, w))
    for lo in range(0, n_res, chunk):
        hi = min(lo + chunk, n_res)
        st = starts[lo:hi]
        # np.take: several times faster than fancy indexing for row gathers
        sums = ones @ np.take(full, st[:, :-1], axis=0) + last[st[:, -1]]
        h = np.take(heads, st[:, 1:], axis=0)
        if last_len < w:  # head values past the end of the resample
            h[:, -1, last_len:w] = 0.0
            h[:, -1, w + last_len:] = 0.0
        t = np.take(tails, (st[:, :-1] + (block_len - w)) % n, axis=0)
        cross = np.matmul(h.reshape(hi - lo, -1, w).transpose(0, 2, 1),
                          t.reshape(hi - lo, -1, w))
        d = sums[:, :w] + np.stack(
            [np.trace(cross, offset=w - lag, axis1=1, axis2=2) for lag in lags], axis=1)
        edge_b = b[(st[:, edge_block] + edge_off) % n]
        head_b = np.cumsum(edge_b[:, :w], axis=1)
        tail_b = np.cumsum(edge_b[:, w:][:, ::-1], axis=1)
        sa, saa, sb, sbb = (sums[:, w + i] / n for i in range(4))
        astd = np.sqrt(saa - sa * sa)
        bstd = np.sqrt(sbb - sb * sb)
        num = d - (a_mean + sa)[:, None] * (head_b - tail_b)
        out[lo:hi] = num / ((n - lags) * (astd * bstd)[:, None])
    return out


def _zumbach_boot_gather(a, b, starts, block_len, n_lags, chunk=64):
    """Direct form: gathers each chunk of resamples in full, then takes
    per-lag dot products.  Handles any n_lags, at O(n * n_lags) per resample."""
    n = a.shape[0]
    n_res = starts.shape[0]
    offs = np.arange(block_len)
    out = np.empty((n_res, n_lags))
    for lo in range(0, n_res, chunk):
        hi = min(lo + chunk, n_res)
        idx = (starts[lo:hi, :, None] + offs[None, None, :]).reshape(hi - lo, -1)[:, :n] % n
        ar = a[idx]
        br = b[idx]
        abar = ar.mean(axis=1)
        astd = ar.std(axis=1)
        bstd = br.std(axis=1)
        for lag in range(1, n_lags + 1):
            past = np.einsum("ij,ij->i", ar[:, lag:], br[:, :-lag]) - abar * br[:, :-lag].sum(axis=1)
            futr = np.einsum("ij,ij->i", ar[:, :-lag], br[:, lag:]) - abar * br[:, lag:].sum(axis=1)
            out[lo:hi, lag - 1] = (past - futr) / ((n - lag) * astd * bstd)
    return out
