"""Hot numeric kernels, one implementation each.

Kernels live here because they are the measured hot spots: the GARCH
likelihood filter runs once per likelihood evaluation (about ten per fit of
a clustered series) and the score once per Newton step; the
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
at the boundary that ends the block holding its earlier bar, from two small
matrix products per resample (see its docstring).  That takes
O(n / block_len * n_lags^2) work per resample instead of O(n * n_lags), for
every n_lags: when n_lags exceeds block_len (series shorter than about
n_lags^3), the values after a boundary come in pieces of whole blocks.

Memory per call stays a few tables of the series' length, never a table of
its length times a window or times the resamples.  The rolling moments
reduce a window view a block of rows at a time (`_rolling`): numpy's `var`
makes a centred copy of every window it is given, 8 n w bytes for the whole
view, which is 1.15 GB at 1e5 one-minute bars and a day's window of 1,440,
and a few MB per block.  Each row reduces alone, so the blocks give the
whole view's bits.  `zumbach_boot` keeps one table of the series' length,
(n + block_len + 1) x (w + 4) values: it writes its prefix sums in place,
then writes its block table over them in ascending row blocks, since each
block row reads only prefix rows at and after its own.  It gathers the
heads and tails of blocks straight from the circularly extended series,
through views whose items are the overlapping w-value windows at every
start (`_windows`), and runs as many resamples per pass as keep a pass's
gathers near 8 MB (9 at 1e5 bars, 1 at 1e6).  At 1e5 bars and 1,000
resamples it peaks at 22.5 MB of allocations (the table is 11.2 MB) and
takes 0.28-0.41 s on one BLAS thread, against 36 MB and 0.40-0.53 s with
an n x 2w table of windows and a second n x (w + 4) block table; at 1e6
bars, 136 MB and 2.5-3.5 s against 313 MB and 3.8-4.0 s (2-vCPU host).

`dot` is the one dot product for every sum over a series whose result
reaches a report (`stats`, `fitting`).  `np.dot` on 1-D
arrays calls BLAS `ddot`, which OpenBLAS splits across threads past 10,000
elements: each split adds its partial sums in another order, so the bits
would depend on the thread count, and every threaded call wakes helper
threads that then spin.  `np.einsum` runs numpy's own loop in one fixed
order.  Two products stay on BLAS.  `zumbach_boot`'s two batched
`np.matmul`s multiply w x (n / block_len) x w blocks (10 x 2,127 x 10 at
1e5 bars): as einsums the kernel takes about three times as long (1.1-1.2 s
against 0.28-0.41 s per 1,000 resamples at 1e5 bars on a 2-vCPU host), and
at these shapes their bits are the same under one and two BLAS threads (the
thread tests in tests/test_cli.py check this).  `fitting.fit_power_law`
sums over at most `f2_max_lag` ACF values, far below the threading
threshold.

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
the same on the score's 3 x 4096 blocks.  A Newton step solves four
recursion rows: the three first derivatives of the variance path, forward
in blocks of 4,096 steps, and one adjoint row backwards over the whole
series, which carries every second derivative (`garch_score`).  The
adjoint's forcing is written straight into its one (n + 1)-value buffer:
with whole-series temporaries for 1/h, eps2/h and the reversed forcing,
the fresh pages of each call cost more than the rows the adjoint saves
(a 1e5-step score took 6.1 ms against 4.2-4.5 ms, one BLAS thread,
2-vCPU host).
`dgttrs`, the tridiagonal solve,
gives `lfilter`'s bits but takes about three times as long.  `dtbtrs`
differs from `lfilter` by at most about 1e-15 relative at beta = 0.85 and
9e-15 at beta = 0.9995 over 1e5 steps (its update may fuse the multiply
and the add), and it sweeps each right-hand side in one sequential pass,
so its bits do not depend on the BLAS thread count.  scipy.linalg is
imported inside the helper, at first use, and stats imports scipy.special
the same way, so `import stylfacts`, and `simulate` for any model, load no
scipy at all.

`csv_lines` formats every CSV the package writes: integers by `str`, floats
by `repr`, NaN as an empty cell.  `repr` runs Gay's correctly rounded dtoa
(1990) for each float, 0.6-1.1 us under the GIL.  The kernel finds the same
shortest digits in whole-column numpy passes, after the idea of Loitsch's
Grisu3 (2010): a fast integer path that certifies its own answer and hands
the rare cell it cannot certify to the exact algorithm (`_shortest`).  For
|v| in [1e-6, 1e16), 10^k with k = 16 - floor(log10 |v|) (up to 10^22, an
exact double) scales v into [1e16, 1e17); Dekker's two-product gives
|v| 10^k exactly as an int64 x plus a fraction f.  The decimals that read
back as v fill the interval of half the gap to each neighbouring double
(the gap below a power of two is half the one above), scaled alike; its
ends rounded inwards to integers leave [first, last].  The shortest digits
are those of the largest j for which a multiple of 10^j lies in it, and of
those multiples the one nearest x + f; the digit count is read off the
chosen multiple, which has 16, 17 or 18 digits.  A cell goes to `repr`
when an end of the interval or a tie between the two nearest multiples
lies within 1e-12 (in units of the 17th digit) of a decision, and when it
is 0, infinite or outside the domain; so the bytes equal `repr`'s by
construction.  Integers of up to 17 digits are written from the same digit
table; longer ones go to `str`.  Each cell gets a fixed slot of
NUL-padded bytes in a (rows, width) buffer, built as 8-byte words: the
digits from a table of the four ASCII digits of 0-9999, and per (exponent,
digit count) pair masks and constants that place the point, a leading "0."
and zeros, and the exponent as `repr` does; one `bytes.translate` then
drops the NULs.  The passes cost about 0.1-0.2 ms per column at any
length, so a block of fewer than 200 rows, such as most curves, goes cell
by cell.  At 1e5 rows (`benchmarks/bench_kernels.py`, five alternating
runs on a 2-vCPU host), `series.write_csv` takes 0.11-0.15 s against
0.35-0.64 s with a `repr` per float, and a `volatility.csv`-shaped curve
0.07-0.10 s against 0.23-0.34 s.  `repr` formats 0-0.01% of the
cells of simulated series and curves, and 3% of random bit patterns in the
domain, nearly all of them above 1e13, where the ends of the interval are
short binary fractions that often land on an integer.
"""

from __future__ import annotations

import math

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

    With d = dh/dtheta, q = d/h, z = eps2/h and w = (1 - z)/h, the score is
    0.5*mean(d w), the Hessian 0.5*mean(w d2h/dtheta2 + (2z - 1) q q') and
    the Fisher information 0.5*mean(q q').  Differentiating
    h[t] = omega + alpha*eps2[t-1] + beta*h[t-1] gives recursions with the
    same pole at beta: d is forced by (1, eps2[t-1], h[t-1]) and runs as one
    first-order recursion over stacked rows (`_first_order_recursion`),
    block by block, with each block's first forcing carrying beta times the
    previous block's last value.  The second derivatives enter only through
    their sums against w, so they are never formed: each is beta^t times its
    start dd_start plus a recursion forced by c d[t-1], and with the adjoint
    v[t] = w[t] + beta*v[t+1] (Griewank & Walther 2008), one backward
    recursion,

        sum_t w[t] d2h[t] = dd_start v[0] + c sum_{t>=1} d[t-1] v[t]

    with c = 1, 1, 2 for (omega beta), (alpha beta), (beta beta); (omega
    alpha) and (alpha alpha) are unforced, their start times v[0], and
    d2h/domega2 is zero.  A Newton step so solves four recursion rows: the
    three of d and v.
    """
    n = eps2.shape[0]
    s = 1.0 - alpha - beta
    u = omega / (s * s)  # dh[0]/dalpha = dh[0]/dbeta
    # the adjoint, written back to front: rev[k] = v[n - k], with v[n] = 0,
    # so v[t + 1] over a block t = lo..hi-1 is rev[n-hi:n-lo] reversed
    rev = np.empty(n + 1)
    rev[0] = 0.0
    w = rev[1:]
    np.divide(eps2[::-1], h[::-1], out=w)
    np.subtract(1.0, w, out=w)
    np.divide(w, h[::-1], out=w)
    rev = _first_order_recursion(rev, beta)
    d_prev = None
    sums = np.zeros((3, 2))  # d against w and against v[t + 1]
    fisher = np.zeros((3, 3))
    curv = np.zeros((3, 3))
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
        d_prev = d[:, -1]

        inv_h = 1.0 / h[lo:hi]
        z = eps2[lo:hi] * inv_h
        q = d * inv_h
        wv = np.empty((2, hi - lo))
        np.multiply(1.0 - z, inv_h, out=wv[0])
        wv[1] = rev[n - hi:n - lo][::-1]
        sums += np.einsum("it,jt->ij", d, wv)
        fisher += np.einsum("it,jt->ij", q, q)
        curv += np.einsum("it,jt->ij", q * (2.0 * z - 1.0), q)

    v0 = rev[n]
    # (omega alpha, alpha alpha); the starts of (omega beta, alpha beta,
    # beta beta) are the same two values
    wa, aa = v0 / (s * s), v0 * 2.0 * u / s
    wb, ab, bb = np.array([wa, aa, aa]) + sums[:, 1] * (1.0, 1.0, 2.0)
    curv += np.array([[0.0, wa, wb], [wa, aa, ab], [wb, ab, bb]])
    half_mean = 0.5 / n
    return (half_mean * sums[:, 0], half_mean * 0.5 * (curv + curv.T),
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

# elements (rows x window length) per block of `_rolling`: a block's
# temporaries stay a few MB at any window length
_BLOCK_ELEMENTS = 1 << 18


def _rolling(reduce, x, n, stride):
    """reduce(windows) over the windows [i*stride, i*stride + n), a block of
    rows at a time into one preallocated output.  Each row reduces alone, so
    the blocks give the bits of one whole-view call without its n_rows x n
    temporaries."""
    win = sliding_window_view(x, n)[::stride]
    out = np.empty(win.shape[0])
    step = max(1, _BLOCK_ELEMENTS // n)
    for lo in range(0, out.shape[0], step):
        out[lo:lo + step] = reduce(win[lo:lo + step])
    return out


def rolling_var(x, n, stride):
    """Sample variance (ddof=1) over windows [i*stride, i*stride + n)."""
    return _rolling(lambda win: win.var(axis=1, ddof=1), x, n, stride)


def rolling_mean(x, n, stride):
    """Plain mean over the same window layout (feeds Parkinson / RS)."""
    return _rolling(lambda win: win.mean(axis=1), x, n, stride)


# ---------------------------------------------------------------------------
# Zumbach statistic and its block-bootstrap null band
# ---------------------------------------------------------------------------

# elements gathered per pass of `zumbach_boot` (`_resamples_per_pass`)
_BOOT_ELEMENTS = 1 << 20
# a resample variance at most this many times n * eps times the series'
# variance is roundoff: the resample has no Z (`zumbach_boot`)
_VAR_FLOOR_ULPS = 16


def _resamples_per_pass(n_blocks, n_pieces, w):
    """Resamples per pass of `zumbach_boot`: as many as keep a pass's
    gathers (the heads and tails of both series and the block-table rows)
    within _BOOT_ELEMENTS, and at least one.  That is 9 at 1e5 bars and 10
    lags, and 1 at 1e6."""
    per_resample = (n_blocks - 1) * (2 * (n_pieces + 1) * w + w + 4)
    return max(1, _BOOT_ELEMENTS // max(per_resample, 1))


def _windows(x, n, w):
    """The w-value windows of x at starts 0 .. n-1 as n void items of 8 w
    bytes at a stride of 8 bytes: a view of x whose items overlap, so a
    fancy index gathers whole windows without a table of them."""
    return np.ndarray((n,), dtype=np.dtype((np.void, 8 * w)), buffer=x, strides=(8,))


def zumbach_boot(a, b, starts, block_len, n_lags):
    """Zumbach's Z on circular-block resamples of the aligned pair (a, b),
    from block range sums, without materialising any resample.

    a is the (squared) volatility proxy and b the squared returns, aligned
    on the same grid.  On n bars, Z(l) = C(l) - C(-l) for l = 1..n_lags:
    C(l) pairs a_t with b_{t-l} over the n - l overlapping bars, centred in
    a alone (on the mean of all n values of a), and is normalized by
    (n - l) * std(a) * std(b), population stds over all n values.

    starts[r, j] is the start index of block j in resample r; blocks of
    block_len bars wrap around the end of the series and are copied jointly
    from both series, so their cross-dependence survives.  Returns
    (n_resamples, n_lags).  Blocks laid end to end from 0 (starts[r, j] =
    j * block_len) rebuild the series itself: that row is Z of (a, b).

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
    at once come from two products of those Q*w values against the w before
    the boundary, summed over boundaries, head_a^T tail_b - head_b^T
    tail_a: lag l is that difference's diagonal at offset w - l.  Piece
    values past the end of the resample are zeroed.

    The heads and tails are gathered straight from the circularly extended
    series, through one view per series whose items are the overlapping
    w-value windows at every start (`_windows`); no table of windows is
    built.  Resamples run `_resamples_per_pass` at a time, so each pass
    gathers a few MB.  starts may be int32 or int64; the results are the
    same.

    A resample whose a or b is constant up to roundoff has no Z, and its
    row is NaN, with no warning.  Its variance comes from differences of
    prefix sums over the whole series, whose roundoff reaches about n ulps
    of the series' mean square (centred, so its variance): a resample that
    misses a series' only jump reads 0, a tiny negative or a tiny positive
    number, and the last would give a huge Z.  So a resample counts as
    undefined when its a or b variance is at most _VAR_FLOOR_ULPS * n * eps
    times that series' variance (3.5e-10 of it at 1e5 bars; such resamples
    read about 1e-12 of it there, real ones about 1).
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
    # the lagged factors).  Each column is written straight into `table`,
    # which is then summed in place into the prefix sums.
    ext = np.arange(-w, n + block_len) % n
    ae, be = a[ext], b[ext]
    del ext
    a_mean = a.mean()
    table = np.empty((n + block_len + 1, w + 4))
    table[0] = 0.0
    body = table[1:]
    for lag in lags[:w]:
        np.multiply(ae[w:], be[w - lag:-lag], out=body[:, lag - 1])
        body[:, lag - 1] -= ae[w - lag:-lag] * be[w:]
    np.subtract(ae[w:], a_mean, out=body[:, w])
    np.multiply(body[:, w], body[:, w], out=body[:, w + 1])
    np.subtract(be[w:], b.mean(), out=body[:, w + 2])
    np.multiply(body[:, w + 2], body[:, w + 2], out=body[:, w + 3])
    np.cumsum(body, axis=0, out=body)
    del body
    first = np.concatenate((lags[:w], np.zeros(4, dtype=np.int64)))
    col = np.arange(w + 4)

    def block_rows(s, m):
        return table[s + m] - table[s[:, None] + np.minimum(first, m), col]

    # the drawn last blocks first; then every full block, written over the
    # prefix sums in ascending row blocks: row s reads rows s .. s +
    # block_len only, and each right-hand side is evaluated before it is
    # assigned, so no row is read after it is overwritten
    last = block_rows(starts[:, -1], last_len)
    step = max(1, _BLOCK_ELEMENTS // (w + 4))
    for lo in range(0, n, step):
        hi = min(lo + step, n)
        table[lo:hi] = block_rows(np.arange(lo, hi), block_len)
    full = table[:n]

    # the w values of a and of b at every start, read from ae[w:] and be[w:]
    a_win, b_win = _windows(ae[w:], n, w), _windows(be[w:], n, w)
    # piece q after boundary j = 1 .. n_blocks-1 is the head of block j+q,
    # clipped to the last block; the (piece, boundary, offset) cells at
    # resample positions >= n are zeroed
    after = np.arange(n_pieces)[:, None] + np.arange(1, n_blocks)
    head_blocks = np.minimum(after, n_blocks - 1)
    past_end = np.nonzero(after[:, :, None] * block_len + np.arange(w) >= n)
    # where the resample's first and last n_lags values of b come from
    edge_block, edge_off = np.divmod(np.r_[0:n_lags, n - n_lags:n], block_len)

    a_floor, b_floor = (_VAR_FLOOR_ULPS * n * np.finfo(float).eps * x.var() for x in (a, b))
    out = np.empty((n_res, n_lags))
    chunk = _resamples_per_pass(n_blocks, n_pieces, w)
    for lo in range(0, n_res, chunk):
        hi = min(lo + chunk, n_res)
        st = starts[lo:hi]
        # np.take: several times faster than fancy indexing for row gathers
        sums = np.einsum("rkj->rj", np.take(full, st[:, :-1], axis=0)) + last[lo:hi]
        # heads and tails by fancy indexing, several times faster than np.take
        # on void items; its result keeps its index's memory order, so the
        # head index is made C-ordered (np.take's order) for the float view
        head_rows = np.take(st, head_blocks, axis=1)
        tail_rows = (st[:, :-1] + (block_len - w)) % n
        head_a, head_b = (x[head_rows].view(np.float64).reshape(hi - lo, n_pieces, -1, w)
                          for x in (a_win, b_win))
        for h in (head_a, head_b):
            h[:, past_end[0], past_end[1], past_end[2]] = 0.0
        tail_a, tail_b = (x[tail_rows].view(np.float64).reshape(hi - lo, 1, -1, w)
                          for x in (a_win, b_win))
        # stays on BLAS: as an einsum the kernel takes 3x as long (module docstring)
        cross = np.matmul(head_a.transpose(0, 1, 3, 2), tail_b)
        cross -= np.matmul(head_b.transpose(0, 1, 3, 2), tail_a)
        cross = cross.reshape(hi - lo, -1, w)
        d = np.stack(
            [np.trace(cross, offset=w - lag, axis1=1, axis2=2) for lag in lags], axis=1)
        d[:, :w] += sums[:, :w]
        edge_b = b[(st[:, edge_block] + edge_off) % n]
        head_sum_b = np.cumsum(edge_b[:, :n_lags], axis=1)
        tail_sum_b = np.cumsum(edge_b[:, n_lags:][:, ::-1], axis=1)
        sa, saa, sb, sbb = (sums[:, w + i] / n for i in range(4))
        a_var = saa - sa * sa
        b_var = sbb - sb * sb
        # sqrt of NaN, unlike that of a negative, does not warn
        undefined = (a_var <= a_floor) | (b_var <= b_floor)
        astd = np.sqrt(np.where(undefined, np.nan, a_var))
        bstd = np.sqrt(np.where(undefined, np.nan, b_var))
        num = d - (a_mean + sa)[:, None] * (head_sum_b - tail_sum_b)
        out[lo:hi] = num / ((n - lags) * (astd * bstd)[:, None])
    return out


# ---------------------------------------------------------------------------
# CSV cells
# ---------------------------------------------------------------------------

# 10^k for k = 0 .. 23, exact up to 10^22, and their Dekker halves
_POW10 = 10.0 ** np.arange(24)
_SPLIT = 134217729.0  # 2^27 + 1


def _split(x):
    """Dekker's split of x into a high half of 26 bits and the exact rest."""
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


_POW10_HI, _POW10_LO = _split(_POW10)
_IPOW10 = 10 ** np.arange(18, dtype=np.int64)  # 1 .. 10^17
# a digit decision this close to a rounding boundary, in units of the 17th
# significant digit, is left to `repr`; the arithmetic errs by below 1e-14
_MARGIN = 1e-12


def _shortest(v):
    """Shortest round-trip digits of float64 v, as `repr` picks them, where
    they can be certified.

    Returns (s, e, nd, ok): the digits as a 17-digit int64 s padded with
    zeros on the right, the decimal exponent e of the first digit, the digit
    count nd, and ok, False where the cell must go to `repr` (see the module
    docstring).  Entries where ok is False hold arbitrary values.
    """
    a = np.abs(v)
    ok = (a >= 1e-6) & (a < 1e16)
    a = np.where(ok, a, 1.0)
    bits = a.view(np.int64)
    # a = m 2^e with m in [0.5, 1); floor(log10 a) is floor((e - 1) log10 2)
    # ((e - 1) 78913 >> 18 for |e| < 1650) or one more, so 10^k with this k
    # scales a into [1e16, 2e17)
    e = (bits >> 52) - 1022
    k = 16 - (((e - 1) * 78913) >> 18)
    k -= (a * np.take(_POW10, k) >= 1e17).view(np.int8)
    ok &= k <= 22
    p = np.take(_POW10, k)
    # a 10^k = hi + lo exactly (Dekker's two-product), then x + f with x an
    # integer and f in [0, 1)
    hi = a * p
    ah, al = _split(a)
    ph, pl = np.take(_POW10_HI, k), np.take(_POW10_LO, k)
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl
    floor_lo = np.floor(lo)
    x = hi.astype(np.int64) + floor_lo.astype(np.int64)
    f = lo - floor_lo
    # half the gap to each neighbour, scaled by 10^k: the ulp of a is
    # 2^(e - 53), and the gap below a power of two is half the one above
    u_hi = p * ((e + (1023 - 54)) << 52).view(np.float64)
    u_lo = u_hi * np.where(bits & ((1 << 52) - 1) == 0, 0.5, 1.0)
    # the interval's ends, relative to x; every decimal strictly inside it
    # reads back as v.  The candidates are integers, so the interval is
    # rounded inwards to [first, last], certified unless an end lies within
    # the margin of an integer
    lo_end, hi_end = f - u_lo, f + u_hi
    lo_int, hi_int = np.ceil(lo_end), np.floor(hi_end)
    ok &= np.maximum(np.abs(lo_int - lo_end - 0.5), np.abs(hi_end - hi_int - 0.5)) < 0.5 - _MARGIN
    first = x + lo_int.astype(np.int64)
    last = x + hi_int.astype(np.int64)
    # the largest j with a multiple of 10^j in [first, last]; j = 0 always
    # has one, since the interval is wider than 1.1.  Most cells stop at 0
    # or 1, so the first two steps run on whole columns
    j1 = last // 10 * 10 >= first
    j2 = last // 100 * 100 >= first
    j = (j1.view(np.int8) + j2.view(np.int8)).astype(np.int64)
    live = np.flatnonzero(j2)
    for jj in range(3, 18):
        p = _IPOW10[jj]
        live = live[last[live] // p * p >= first[live]]
        if not live.size:
            break
        j[live] = jj
    # of those multiples the one nearest x + f; a tie is left to repr
    p = np.take(_IPOW10, j)
    q = x // p
    side = (2 * (x - q * p) - p).astype(np.float64) + 2.0 * f
    ok &= np.abs(side) > 2.0 * _MARGIN
    c = (q + (side > 0.0).view(np.int8)) * p
    # the nearest multiple may miss the interval where it is lopsided (just
    # above a power of two); the next one the other way is then inside it
    c += p * ((c < first).view(np.int8) - (c > last).view(np.int8))
    # c has 16, 17 or 18 digits (10^17 itself)
    big, small = c >= _IPOW10[17], c < _IPOW10[16]
    n_c = 17 + big.view(np.int8) - small.view(np.int8)
    s = np.where(big, _IPOW10[16], np.where(small, 10 * c, c)) if (big | small).any() else c
    return s, n_c - 1 - k, n_c - j, ok


def _fmt_cell(v) -> str:
    """One cell by the CSV rule: integers by `str`, anything else through
    float: NaN as "", others by `repr`."""
    if isinstance(v, (np.integer, int)) and not isinstance(v, bool):
        return str(int(v))
    f = float(v)
    if math.isnan(f):
        return ""
    return repr(f)


def _words(b):
    """Rows of 8 k byte values as k rows of uint64 words, little-endian:
    byte i of a word is bits 8 i .. 8 i + 7 whatever the platform's order."""
    return np.ascontiguousarray(b, dtype=np.uint8).view("<u8").astype(np.uint64).T.copy()


# the ASCII digits of 0 .. 9999, first digit in the lowest byte: 4 digits
# of x < 10^4, 3 of x < 10^3 (>> 8) or 2 of x < 10^2 (>> 16)
_DIGITS4 = ((np.indices((10,) * 4).reshape(4, -1) + ord("0"))
            << np.array([0, 8, 16, 24])[:, None]).sum(axis=0).astype(np.uint64)

# Cell slots, 8-byte words of NUL-padded ASCII; the byte after the cell
# holds its separator.
#
# float (32 bytes): 0 sign; 1-5 "0." and up to three zeros below 1; 6-23
# the digits with the point among them; 24-27 the exponent; 28 separator.
# `repr` is at most 24 bytes.
_FLOAT_SLOT, _FLOAT_SEP = 32, 28
# int (24 bytes): 0 sign; 1-17 the 17 digits, leading zeros dropped; 20
# separator.  `str` of an int64 or uint64 is at most 20 bytes.
_INT_SLOT, _INT_SEP = 24, 20
# rows below which a block goes cell by cell: the whole-column passes take
# about 0.1-0.2 ms per column at any length, what `repr` takes for some 200
# floats, and most curves are a few dozen rows
_VECTOR_ROWS = 200
# certified floats have a first-digit exponent in [-6, 15] and 1-17 digits
_EXPONENTS, _NDIGITS = np.arange(-6, 16), np.arange(1, 18)


def _float_templates():
    """Per (exponent, digit count) pair, three masks and constants that lay
    out the digit stream X (digit i at slot byte 6 + i) as `repr` does:
    word = (X & keep) | ((X << 8) & shifted) | const, per slot word.  Digits
    up to the point come from X, the rest from X shifted one byte right, to
    make room for the point."""
    e = np.repeat(_EXPONENTS, _NDIGITS.size)[:, None]
    nd = np.tile(_NDIGITS, _EXPONENTS.size)[:, None]
    pos = (e >= -4) & (e < 16)  # repr's positional range
    frac = pos & (e < 0)
    # digits shown: positional from 1 up shows e + 1 digits before the point
    # and at least one after it.  The point follows digit `point` (17: none)
    shown = np.where(pos & (e >= 0), np.maximum(nd, e + 2), nd)
    point = np.where(pos, np.where(e >= 0, e, 17), np.where(nd > 1, 0, 17))
    b = np.arange(_FLOAT_SLOT)
    body = b - 6  # body byte: digit `body` before the point, `body - 1` after
    in_body = (body >= 0) & (body < 18)
    keep = in_body & (body <= point) & (body < shown)
    shifted = in_body & (body >= point + 2) & (body - 1 < shown)
    const = np.zeros((e.shape[0], _FLOAT_SLOT), np.uint8)
    const[:, 1:3] = np.where(frac, np.frombuffer(b"0.", np.uint8), 0)
    const[:, 3:6] = np.where(frac & (b[3:6] - 3 < -e - 1), ord("0"), 0)
    const[in_body & (body == point + 1)] = ord(".")
    tens, ones = np.divmod(np.abs(e[:, 0]), 10)
    exp = np.stack([np.full_like(tens, ord("e")), np.where(e[:, 0] < 0, ord("-"), ord("+")),
                    tens + ord("0"), ones + ord("0")], axis=1)
    const[:, 24:28] = np.where(pos, 0, exp)
    return _words(np.where(keep, 255, 0)), _words(np.where(shifted, 255, 0)), _words(const)


# (keep, shifted, const), each (4 words, pairs); pair = (e + 6) * 17 + nd - 1
_FLOAT_KEEP, _FLOAT_SHIFTED, _FLOAT_CONST = _float_templates()
# per digit count nd (index 0 unused), the int slot's digit bytes kept: the
# last nd of bytes 1-17
_INT_KEEP = _words(np.where((np.arange(_INT_SLOT) < 18)
                            & (np.arange(_INT_SLOT) >= 18 - np.arange(18)[:, None]), 255, 0))


def _fill(out, cells, rows=slice(None)):
    """Write the ASCII strings cells, NUL-padded, into the given rows of the
    uint8 cell slots out."""
    if len(cells):
        out[rows] = np.array(cells, dtype=f"S{out.shape[1]}").view(np.uint8).reshape(
            len(cells), -1)


def _float_cells(out, v):
    """float64 v into the (n, _FLOAT_SLOT) uint8 slots out as `repr` writes
    them, NaN as an empty cell."""
    s, e, nd, ok = _shortest(v)
    pair = np.where(ok, e * 17 + nd + (6 * 17 - 1), 0)
    # the 17 digits as a byte stream from slot byte 6: digits 0-1, 2-9, 10-16
    top = s // 10 ** 15
    rest = s - top * 10 ** 15
    mid = rest // 10 ** 7
    low = rest - mid * 10 ** 7
    x0 = np.take(_DIGITS4, top) << np.uint64(32)  # "00" + 2 digits, at bytes 4-7
    hi4 = mid // 10_000
    x1 = np.take(_DIGITS4, hi4) | np.take(_DIGITS4, mid - hi4 * 10_000) << np.uint64(32)
    hi3 = low // 10_000
    x2 = (np.take(_DIGITS4, hi3) >> np.uint64(8)
          | np.take(_DIGITS4, low - hi3 * 10_000) << np.uint64(24))
    words = out.view("<u8")
    carry = np.uint64(56)
    eight = np.uint64(8)
    sign = (v.view(np.uint64) >> np.uint64(63)) * np.uint64(ord("-"))
    for i, (x, shifted) in enumerate(((x0, x0 << eight),
                                      (x1, x1 << eight | x0 >> carry),
                                      (x2, x2 << eight | x1 >> carry))):
        w = (x & np.take(_FLOAT_KEEP[i], pair)) | (shifted & np.take(_FLOAT_SHIFTED[i], pair))
        w |= np.take(_FLOAT_CONST[i], pair)
        if i == 0:
            w |= sign
        words[:, i] = w
    words[:, 3] = np.take(_FLOAT_CONST[3], pair)
    nan = np.isnan(v)
    words[nan] = 0
    rows = np.flatnonzero(~ok & ~nan)
    _fill(out, list(map(repr, v[rows].tolist())), rows)


def _int_cells(out, a):
    """Integers a into the (n, _INT_SLOT) uint8 slots out as `str` writes
    them; those of 18 digits and more through `str` itself."""
    limit = _IPOW10[17]
    big = a >= limit if a.dtype.kind == "u" else (a >= limit) | (a <= -limit)
    x = np.where(big, 0, a).astype(np.int64)
    s = np.abs(x)
    # the digit count, from log10 corrected at the powers of ten
    nd = np.log10(np.maximum(s, 1).astype(np.float64)).astype(np.int64) + 1
    nd -= (s < np.take(_IPOW10, nd - 1)) & (nd > 1)
    # digits 0-6, 7-14, 15-16 of the 17 at slot bytes 1-7, 8-15, 16-17
    top = s // 10 ** 10
    rest = s - top * 10 ** 10
    mid = rest // 100
    hi3 = top // 10_000
    hi4 = mid // 10_000
    w0 = np.take(_DIGITS4, hi3) | np.take(_DIGITS4, top - hi3 * 10_000) << np.uint64(32)
    w1 = np.take(_DIGITS4, hi4) | np.take(_DIGITS4, mid - hi4 * 10_000) << np.uint64(32)
    w2 = np.take(_DIGITS4, rest - mid * 100) >> np.uint64(16)
    words = out.view("<u8")
    words[:, 0] = w0 & np.take(_INT_KEEP[0], nd) | (x < 0).view(np.uint8) * np.uint64(ord("-"))
    words[:, 1] = w1 & np.take(_INT_KEEP[1], nd)
    words[:, 2] = w2 & np.take(_INT_KEEP[2], nd)
    rows = np.flatnonzero(big)
    _fill(out, list(map(str, a[rows].tolist())), rows)


def csv_lines(arrays) -> str:
    """CSV lines of equal-length columns, each line ending in a newline:
    integers by `str`, floats by `repr`, NaN as an empty cell, byte for byte
    as `_fmt_cell` writes each cell.  Integer and float columns up to 64
    bits are formatted by whole-column passes; any other dtype (bool,
    object, longdouble), and any column of a block shorter than
    _VECTOR_ROWS, goes cell by cell through `_fmt_cell`.

    Every cell gets a fixed slot of NUL-padded bytes in one (rows, width)
    buffer, its separator at a fixed place in it, and one `bytes.translate`
    drops the NULs (see the module docstring)."""
    n = len(arrays[0])
    columns = []  # (slot bytes, separator byte, writer, its column)
    vector = n >= _VECTOR_ROWS
    for a in arrays:
        if vector and a.ndim == 1 and a.dtype.kind in "iu":
            columns.append((_INT_SLOT, _INT_SEP, _int_cells, a))
        elif vector and a.ndim == 1 and a.dtype.kind == "f" and a.dtype.itemsize <= 8:
            with np.errstate(invalid="ignore"):  # a signalling NaN below 64 bits
                a = a.astype(np.float64, copy=False)
            columns.append((_FLOAT_SLOT, _FLOAT_SEP, _float_cells, a))
        else:
            cells = list(map(_fmt_cell, a))
            sep = max(map(len, cells), default=0)
            columns.append((sep + 8 - sep % 8, sep, _fill, cells))
    row = sum(c[0] for c in columns)
    raw = bytearray(n * row)
    buf = np.frombuffer(raw, np.uint8).reshape(n, row)
    lo = 0
    for width, sep, write, column in columns:
        write(buf[:, lo:lo + width], column)
        buf[:, lo + sep] = ord(",")
        lo += width
    buf[:, lo - width + sep] = ord("\n")
    del buf
    return raw.translate(None, b"\0").decode("ascii")
