"""Twins of the package's numeric kernels and of two primitives.

Each `*_loop` function spells out its kernel's arithmetic in
`stylfacts.kernels` one element at a time.  `tests/test_kernels.py` holds
the kernels to them, and `benchmarks/bench_kernels.py` checks and times the
kernels against them.

`fit_garch11_five_starts` is `fitting.fit_garch11` descending from every
restart start, as it did before the first start's fit was kept when it
clusters; `lag_gram_prefix_sums` is `stats._lag_gram` as it was before it
read full-range lag sums, with one multiply and one prefix sum over the
series per lag.  The tests hold the fit and the Gram matrix to them, and
the benchmark times them as the baselines.
"""

import math

import numpy as np

from stylfacts import fitting, kernels


def garch_filter_loop(eps2, omega, alpha, beta, h1):
    n = eps2.shape[0]
    h = np.empty(n)
    h[0] = h1
    for t in range(1, n):
        h[t] = omega + alpha * eps2[t - 1] + beta * h[t - 1]
    return h


def garch_score_loop(eps2, h, omega, alpha, beta):
    n = eps2.shape[0]
    s = 1.0 - alpha - beta
    d = np.array([1.0 / s, omega / (s * s), omega / (s * s)])
    # (omega alpha, omega beta, alpha alpha, alpha beta, beta beta)
    dd = np.array([1.0 / (s * s), 1.0 / (s * s)] + [2.0 * omega / (s * s * s)] * 3)
    score = np.zeros(3)
    hess = np.zeros((3, 3))
    fisher = np.zeros((3, 3))
    for t in range(n):
        if t > 0:
            dd = np.array([beta * dd[0], d[0] + beta * dd[1], beta * dd[2],
                           d[1] + beta * dd[3], 2.0 * d[2] + beta * dd[4]])
            d = np.array([1.0 + beta * d[0], eps2[t - 1] + beta * d[1], h[t - 1] + beta * d[2]])
        z = eps2[t] / h[t]
        q = d / h[t]
        second = np.array([[0.0, dd[0], dd[1]], [dd[0], dd[2], dd[3]], [dd[1], dd[3], dd[4]]])
        score += q * (1.0 - z)
        fisher += np.outer(q, q)
        hess += (1.0 - z) * second / h[t] + (2.0 * z - 1.0) * np.outer(q, q)
    return 0.5 * score / n, 0.5 * hess / n, 0.5 * fisher / n


def fit_garch11_five_starts(returns):
    """`fitting.fit_garch11` from every `_RESTART_GRID` start, plus the
    corner when the best of them is weak; the best start is kept, the
    first on ties."""
    r, mu, var, eps2 = fitting._standardized(returns)
    trace = []
    fits = [fitting._newton_fit(eps2, np.array([1.0 - a0 - b0, a0, b0]), trace)
            for a0, b0 in fitting._RESTART_GRID]
    if min(fits, key=lambda fit: fit[1])[0][fitting._ALPHA] < fitting._WEAK_ALPHA:
        a0, b0 = fitting._CORNER_START
        fits.append(fitting._newton_fit(eps2, np.array([1.0 - a0 - b0, a0, b0]), trace))
    return fitting._garch_result(r, mu, var, fits, trace)


def lag_gram_prefix_sums(x, dy, p, start):
    """`stats._lag_gram` with each dy-by-dy entry as a range of one prefix
    sum per lag difference: p + 1 multiplies and cumsums over the series."""
    n = len(x)
    lags = np.r_[1:p + 1, 0]
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


def garch_sim_loop(z, omega, alpha, gamma, beta, h1, burn):
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


def ou_path_loop(z, x0, mu, b, noise_scale):
    n = z.shape[0]
    out = np.empty(n + 1)
    out[0] = x0
    x = x0
    for t in range(n):
        x = mu + (x - mu) * b + noise_scale * z[t]
        out[t + 1] = x
    return out


def rolling_var_loop(x, n, stride):
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


def rolling_mean_loop(x, n, stride):
    count = (x.shape[0] - n) // stride + 1
    out = np.empty(count)
    for i in range(count):
        s = i * stride
        acc = 0.0
        for j in range(s, s + n):
            acc += x[j]
        out[i] = acc / n
    return out


def zumbach_boot_loop(a, b, starts, block_len, n_lags):
    """Z on circular-block resamples of the aligned pair (a, b).

    starts[r, j] is the start index of block j in resample r; blocks are
    copied jointly from both series so their cross-dependence survives.
    Returns (n_resamples, n_lags); a resample whose a or b variance is at
    most the kernel's roundoff floor gets a row of NaN.
    """
    n = a.shape[0]
    a_floor = kernels._VAR_FLOOR_ULPS * n * np.finfo(float).eps * a.var()
    b_floor = kernels._VAR_FLOOR_ULPS * n * np.finfo(float).eps * b.var()
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
        a_var = saa / n - abar * abar
        b_var = sbb / n - (sb / n) * (sb / n)
        if a_var <= a_floor or b_var <= b_floor:
            out[r] = np.nan
            continue
        astd = np.sqrt(a_var)
        bstd = np.sqrt(b_var)
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


def fmt_cell_loop(v):
    """One CSV cell: integers by `str`, anything else through float, NaN as
    an empty cell and others by `repr`."""
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


def csv_lines_loop(arrays):
    return "".join(",".join(fmt_cell_loop(a[i]) for a in arrays) + "\n"
                   for i in range(len(arrays[0])))
