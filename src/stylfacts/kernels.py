"""Hot numeric kernels, one implementation each.

Kernels live here because they are the measured hot spots: the GARCH
likelihood filter runs once per likelihood evaluation (a few dozen per fit)
and the score, with its derivative recursions, once per Newton step; the
simulators are sequential recursions, rolling window estimators touch every
bar, and the Zumbach null band resamples the series a thousand times.
`benchmarks/bench_kernels.py` times each kernel and checks it against its
twin.

Every kernel has a `*_loop` twin in `tests/_oracles.py` that spells out the
arithmetic one element at a time; the tests hold the kernels to the twins.
The filters, the simulators and the rolling moments run the twin's
arithmetic in another order (triangular solves, prefix scans, window
views), which moves results at roundoff.  The two simulators are affine
recursions x_{t+1} = c_t x_t + f_t whose coefficients are known before the
recursion runs, so each runs as an inclusive prefix scan of affine maps
(Blelloch 1990): log2(n) whole-array passes instead of n Python steps.

`zumbach_boot` computes the same statistic as its loop twin by another
decomposition: it never builds a resample.  Pairs of bars inside one
block are read from a table of circular prefix-sum differences, one row per
possible block start; a pair that crosses block boundaries is counted once,
at the boundary that ends the block holding its earlier bar, from one small
matrix product per resample (see its docstring).  That takes
O(n / block_len * n_lags^2) work per resample instead of O(n * n_lags), for
every n_lags: when n_lags exceeds block_len (series shorter than about
n_lags^3), the values after a boundary come in pieces of whole blocks.

`dot` is the one dot product for every sum over a series whose result
reaches a report (`stats`, `fitting`, `zumbach_z`).  `np.dot` on 1-D
arrays calls BLAS `ddot`, which OpenBLAS splits across threads past 10,000
elements: each split adds its partial sums in another order, so the bits
would depend on the thread count, and every threaded call wakes helper
threads that then spin.  `np.einsum` runs numpy's own loop in one fixed
order.  Two products stay on BLAS.  `zumbach_boot`'s batched `np.matmul`
multiplies w x (2 n / block_len) x w blocks (10 x 4,300 x 10 at 1e5 bars):
as an einsum the kernel takes about three times as long (1.2-1.4 s against
0.36-0.46 s per 1,000 resamples at 1e5 bars on a 2-vCPU host), and at these
shapes its bits are the same under one and two BLAS threads (the thread
tests in tests/test_cli.py check this).  `fitting.fit_power_law` sums over
at most `f2_max_lag` ACF values, far below the threading threshold.

The GARCH filter and score run their first-order recursions
y[t] = beta y[t-1] + f[t] as one triangular solve each: y solves the unit
lower bidiagonal system (I - beta L) y = f, and LAPACK's banded triangular
solve `dtbtrs` takes stacked rows as its right-hand sides
(`_first_order_recursion`).  It replaced `scipy.signal.lfilter`, whose
import also loads scipy.stats, optimize, interpolate, spatial and sparse:
a fresh interpreter's first `garch_filter` call took 0.6-0.7 s and peaked
at 104 MB of RSS through `lfilter`, and takes 0.23-0.26 s and 57 MB
through `dtbtrs` (`benchmarks/bench_kernels.py`, 2-vCPU host).  The solve
is slower per step: 0.8-1.0 ms against 0.5-0.6 ms on one 1e5 row, about
the same on the score's 3 x 4096 blocks.  `dgttrs`, the tridiagonal solve,
gives `lfilter`'s bits but takes about three times as long.  `dtbtrs`
differs from `lfilter` by at most about 1e-15 relative at beta = 0.85 and
9e-15 at beta = 0.9995 over 1e5 steps (its update may fuse the multiply
and the add), and it sweeps each right-hand side in one sequential pass,
so its bits do not depend on the BLAS thread count.  scipy.linalg is
imported inside the helper, at first use, and stats imports scipy.special
the same way, so `import stylfacts`, and `simulate` for any model, load no
scipy at all.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# There is no compiled path.  perfbench/run.py's machine probe still reads
# this flag into every result record.
USE_NUMBA = False


def dot(x, y):
    """Sum of x[i] * y[i] over two 1-D arrays, as a numpy float64.

    A fixed-order sum of products in numpy's own loop, never in BLAS, so
    the result does not depend on the BLAS library's thread count (see the
    module docstring)."""
    return np.einsum("i,i->", x, y)


# ---------------------------------------------------------------------------
# GARCH conditional-variance filter
# ---------------------------------------------------------------------------

def _first_order_recursion(forcing, beta):
    """y[..., t] = beta * y[..., t-1] + forcing[..., t] along the last axis,
    from y[..., -1] = 0, for one row or a C-contiguous stack of rows.

    Each row is the right-hand side of the unit lower bidiagonal system
    (I - beta L) y = forcing, solved by LAPACK's `dtbtrs` (see the module
    docstring).  The solve overwrites `forcing` with y where it can, so
    callers pass an array they no longer need.  Carry a state into a block
    by adding beta times the previous block's last y to its first forcing.
    """
    from scipy.linalg.lapack import dtbtrs

    n = forcing.shape[-1]
    # band storage: row 0 holds the unit diagonal, which dtbtrs never reads
    # with diag="U", row 1 the subdiagonal
    band = np.full((2, n), -beta, order="F")
    y, _ = dtbtrs(band, forcing.reshape(-1, n).T, uplo="L", diag="U", overwrite_b=1)
    return y.T.reshape(forcing.shape)


def garch_filter(eps2, omega, alpha, beta, h1):
    """Conditional variance path h_t for demeaned squared returns eps2.

    h[0] = h1, h[t] = omega + alpha*eps2[t-1] + beta*h[t-1].  The recursion is
    linear in h, so it runs as one first-order recursion.
    """
    forcing = np.empty_like(eps2)
    forcing[0] = h1
    forcing[1:] = omega + alpha * eps2[:-1]
    return _first_order_recursion(forcing, beta)


# series length per pass of `garch_score`: its arrays stay in cache and
# under the size above which the allocator maps fresh pages for each one,
# whose page faults cost more than the arithmetic
_SCORE_BLOCK = 4096


def garch_score(eps2, h, omega, alpha, beta):
    """Score, Hessian and Fisher information of the Gaussian quasi-likelihood
    objective 0.5 * mean(log h + eps2/h) with respect to (omega, alpha,
    beta), given the variance path h from `garch_filter` started at the
    unconditional variance omega/(1-alpha-beta).

    With d = dh/dtheta, q = d/h and z = eps2/h, the score is
    0.5*mean(q (1 - z)), the Hessian 0.5*mean((1 - z) (d2h/dtheta2)/h +
    (2z - 1) q q') and the Fisher information 0.5*mean(q q').
    Differentiating h[t] = omega + alpha*eps2[t-1] + beta*h[t-1] gives
    recursions with the same pole at beta: d is forced by (1, eps2[t-1],
    h[t-1]), and the second derivatives (omega beta, alpha beta, beta beta)
    by (d_omega, d_alpha, 2 d_beta)[t-1]; each runs as one first-order
    recursion over stacked rows (`_first_order_recursion`), block by block,
    with each block's first forcing carrying beta times the previous block's
    last value.
    (omega alpha) and (alpha alpha) are unforced, beta^t times their start,
    and enter as one weighted sum: a recursion would decay them into
    subnormal numbers that never reach zero, which slows every later step.
    d2h/domega2 is zero.
    """
    n = eps2.shape[0]
    s = 1.0 - alpha - beta
    u = omega / (s * s)  # dh[0]/dalpha = dh[0]/dbeta
    d_prev = dd_prev = None
    dd_start = (1.0 / (s * s), 2.0 * u / s, 2.0 * u / s)
    score = np.zeros(3)
    fisher = np.zeros((3, 3))
    curv = np.zeros((3, 3))
    dd_sums = np.zeros(3)  # (omega beta, alpha beta, beta beta) against (1 - z)/h
    decay_sum = 0.0        # beta^t against (1 - z)/h
    for lo in range(0, n, _SCORE_BLOCK):
        hi = min(lo + _SCORE_BLOCK, n)
        forcing = np.empty((3, hi - lo))
        forcing[0] = 1.0
        if lo == 0:
            forcing[:, 0] = (1.0 / s, u, u)
            forcing[1, 1:] = eps2[:hi - 1]
            forcing[2, 1:] = h[:hi - 1]
        else:
            forcing[1] = eps2[lo - 1:hi - 1]
            forcing[2] = h[lo - 1:hi - 1]
            forcing[:, 0] += beta * d_prev
        d = _first_order_recursion(forcing, beta)
        forcing = np.empty((3, hi - lo))
        forcing[:, 0] = dd_start if lo == 0 else d_prev * (1.0, 1.0, 2.0) + beta * dd_prev
        forcing[:2, 1:] = d[:2, :-1]
        np.multiply(d[2, :-1], 2.0, out=forcing[2, 1:])
        dd = _first_order_recursion(forcing, beta)
        d_prev, dd_prev = d[:, -1], dd[:, -1]

        inv_h = 1.0 / h[lo:hi]
        z = eps2[lo:hi] * inv_h
        q = d * inv_h
        score += np.einsum("it,t->i", q, 1.0 - z)
        fisher += np.einsum("it,jt->ij", q, q)
        curv += np.einsum("it,jt->ij", q * (2.0 * z - 1.0), q)
        w = (1.0 - z) * inv_h
        dd_sums += np.einsum("it,t->i", dd, w)
        if beta > 0.0 and lo * np.log(beta) > -690.0:
            decay_sum += float(np.einsum("t,t->", np.exp(np.arange(lo, hi) * np.log(beta)), w))
        elif lo == 0:
            decay_sum += w[0]

    wa, aa = decay_sum / (s * s), decay_sum * 2.0 * u / s
    wb, ab, bb = dd_sums
    curv += np.array([[0.0, wa, wb], [wa, aa, ab], [wb, ab, bb]])
    half_mean = 0.5 / n
    return (half_mean * score, half_mean * 0.5 * (curv + curv.T),
            half_mean * 0.5 * (fisher + fisher.T))


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------

def garch_sim(z, omega, alpha, gamma, beta, h1, burn):
    """Simulate r_t = sqrt(h_t) z_t; gamma=0 gives plain GARCH.

    z covers burn + n steps; the first `burn` draws warm up the recursion and
    are discarded.  Returns (r, h) for the kept steps.

    With r_t^2 = h_t z_t^2 the update is affine in h,
    h_{t+1} = omega + c_t h_t with c_t = (alpha + gamma 1[z_t < 0]) z_t^2 + beta,
    and c_t is known from the draws, so h comes from an inclusive
    Hillis-Steele scan of the maps x -> c x + omega under composition.  The
    first map is the constant h1 (c = 0), so the scan's offsets are h itself.
    """
    total = z.shape[0]
    c = np.empty(total)
    c[0] = 0.0
    np.multiply(np.where(z[:-1] < 0.0, alpha + gamma, alpha), z[:-1] * z[:-1], out=c[1:])
    c[1:] += beta
    h = np.full(total, float(omega))
    h[0] = h1
    # pass d composes each map with the one d steps before it (numpy
    # buffers the overlapping in-place operands)
    d = 1
    while d < total:
        h[d:] += c[d:] * h[:-d]
        c[d:] *= c[:-d]
        d *= 2
    h = h[burn:]
    return np.sqrt(h) * z[burn:], h


def ou_path(z, x0, mu, b, noise_scale):
    """Exact OU discretization x_{t+1} = mu + (x_t - mu) * b + noise_scale * z_t.

    Returns the path including x0 (length len(z) + 1).  The deviations from
    mu follow the same affine recursion as `garch_sim` with the constant
    coefficient b, so the scan needs only the powers b^d.
    """
    dev = noise_scale * z
    dev[0] += b * (x0 - mu)
    d, bd = 1, b
    while d < dev.shape[0] and bd != 0.0:
        dev[d:] += bd * dev[:-d]
        d, bd = 2 * d, bd * bd
    out = np.empty(z.shape[0] + 1)
    out[0] = x0
    out[1:] = mu + dev
    return out


# ---------------------------------------------------------------------------
# Rolling window reductions
# ---------------------------------------------------------------------------

def rolling_var(x, n, stride):
    """Sample variance (ddof=1) over windows [i*stride, i*stride + n)."""
    win = sliding_window_view(x, n)[::stride]
    return win.var(axis=1, ddof=1)


def rolling_mean(x, n, stride):
    """Plain mean over the same window layout (feeds Parkinson / RS)."""
    win = sliding_window_view(x, n)[::stride]
    return win.mean(axis=1)


# ---------------------------------------------------------------------------
# Zumbach statistic and its block-bootstrap null band
# ---------------------------------------------------------------------------

# resamples per pass of `zumbach_boot`
_BOOT_CHUNK = 16

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
        past = dot(a[lag:] - abar, b[:-lag])
        futr = dot(a[:-lag] - abar, b[lag:])
        z[lag - 1] = (past - futr) / ((n - lag) * sa * sb)
    return z


def zumbach_boot(a, b, starts, block_len, n_lags):
    """Z (`zumbach_z`) on circular-block resamples of the aligned pair
    (a, b), from block range sums, without materialising any resample.

    starts[r, j] is the start index of block j in resample r; blocks of
    block_len bars wrap around the end of the series and are copied jointly
    from both series, so their cross-dependence survives.  Returns
    (n_resamples, n_lags).

    For each lag l the numerator is D_l - abar * (sum of the resample's first
    l values of b - sum of its last l), where D_l = sum_t a_t b_{t-l} -
    a_{t-l} b_t.  A pair (t, t-l) either lies inside one block, where D_l's
    share is a range sum of c_l[i] = a_i b_{i-l} - a_{i-l} b_i over the
    circular source index, or crosses one or more block boundaries, and is
    then counted once, at the boundary j that ends the block j-1 holding
    its earlier bar.  With w = min(n_lags, block_len), that earlier bar is
    among the last w values of block j-1, and the later one among the
    n_lags values after the boundary: Q = ceil(n_lags / w) pieces of w
    values at the starts of blocks j .. j+Q-1 (one piece when n_lags <=
    block_len; whole blocks otherwise).  The crossing pairs for every lag
    at once come from one product of those Q*w values against the w before
    the boundary, summed over boundaries: lag l is that product's diagonal
    at offset w - l.  Piece values past the end of the resample are zeroed.
    """
    n = a.shape[0]
    w = min(n_lags, block_len)
    n_pieces = -(-n_lags // w)
    n_res, n_blocks = starts.shape
    last_len = n - (n_blocks - 1) * block_len
    lags = np.arange(1, n_lags + 1)

    # Block table: one row per circular start s.  Column l-1 is the part of
    # D_l inside a block of length m at s, sum_{k=l}^{m-1} c_l[s+k] (always
    # zero for l >= block_len, so only the first w lags get a column); the
    # last four are the block sums of ac, ac^2, bc, bc^2, where centering
    # (the variances are shift-invariant) keeps sum(x^2)/n - mean^2 from
    # cancelling digits.  Both come as differences of prefix sums over the
    # source index, extended circularly by one block (and by w before it for
    # the lagged factors).
    ext = np.arange(-w, n + block_len) % n
    ae, be = a[ext], b[ext]
    a_mean = a.mean()
    ac = ae[w:] - a_mean
    bc = be[w:] - b.mean()
    cols = [ae[w:] * be[w - lag:-lag] - ae[w - lag:-lag] * be[w:] for lag in lags[:w]]
    cols += [ac, ac * ac, bc, bc * bc]
    prefix = np.zeros((n + block_len + 1, w + 4))
    np.cumsum(np.stack(cols, axis=1), axis=0, out=prefix[1:])
    del cols
    first = np.concatenate((lags[:w], np.zeros(4, dtype=np.int64)))
    col = np.arange(w + 4)

    def block_rows(s, m):
        return prefix[s + m] - prefix[s[:, None] + np.minimum(first, m), col]

    full = block_rows(np.arange(n), block_len)

    # w-long windows at every circular start: a block's head as (a, b) and
    # the previous block's tail as (b, -a), so that one contraction over
    # boundaries gives sum_j head_a[u] tail_b[k] - tail_a[k] head_b[u].
    aw = sliding_window_view(ae[w:n + 2 * w - 1], w)
    bw = sliding_window_view(be[w:n + 2 * w - 1], w)
    heads = np.concatenate((aw, bw), axis=1)
    tails = np.concatenate((bw, -aw), axis=1)
    # piece q after boundary j = 1 .. n_blocks-1 is the head of block j+q,
    # clipped to the last block; the (piece, boundary, offset) cells at
    # resample positions >= n are zeroed
    after = np.arange(n_pieces)[:, None] + np.arange(1, n_blocks)
    head_blocks = np.minimum(after, n_blocks - 1)
    past_end = np.nonzero(after[:, :, None] * block_len + np.arange(w) >= n)
    # where the resample's first and last n_lags values of b come from
    edge_block, edge_off = np.divmod(np.r_[0:n_lags, n - n_lags:n], block_len)

    out = np.empty((n_res, n_lags))
    for lo in range(0, n_res, _BOOT_CHUNK):
        hi = min(lo + _BOOT_CHUNK, n_res)
        st = starts[lo:hi]
        # np.take: several times faster than fancy indexing for row gathers
        sums = (np.einsum("rkj->rj", np.take(full, st[:, :-1], axis=0))
                + block_rows(st[:, -1], last_len))
        h = np.take(heads, st[:, head_blocks], axis=0).reshape(
            hi - lo, n_pieces, n_blocks - 1, 2, w)
        h[:, past_end[0], past_end[1], :, past_end[2]] = 0.0
        t = np.take(tails, (st[:, :-1] + (block_len - w)) % n, axis=0)
        # stays on BLAS: as an einsum the kernel takes 3x as long (module docstring)
        cross = np.matmul(h.reshape(hi - lo, n_pieces, -1, w).transpose(0, 1, 3, 2),
                          t.reshape(hi - lo, 1, -1, w)).reshape(hi - lo, -1, w)
        d = np.stack(
            [np.trace(cross, offset=w - lag, axis1=1, axis2=2) for lag in lags], axis=1)
        d[:, :w] += sums[:, :w]
        edge_b = b[(st[:, edge_block] + edge_off) % n]
        head_b = np.cumsum(edge_b[:, :n_lags], axis=1)
        tail_b = np.cumsum(edge_b[:, n_lags:][:, ::-1], axis=1)
        sa, saa, sb, sbb = (sums[:, w + i] / n for i in range(4))
        astd = np.sqrt(saa - sa * sa)
        bstd = np.sqrt(sbb - sb * sb)
        num = d - (a_mean + sa)[:, None] * (head_b - tail_b)
        out[lo:hi] = num / ((n - lags) * (astd * bstd)[:, None])
    return out
