"""Each kernel against its element-by-element `*_loop` twin in `_oracles`.

Tolerances come from float64 roundoff, not from the observed error.  The
filters, the simulators' scans and the rolling moments reorder short sums.
The Zumbach kernels decompose the statistic another way (prefix sums over
the whole series, boundary products), so they are held to 1e-10 of the
largest |Z| of the reference.  `csv_lines` is held to its twin byte for
byte.
"""

import io
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from stylfacts import kernels

import _oracles


@pytest.fixture
def series():
    rng = np.random.default_rng(20)
    return {"eps2": rng.standard_normal(500) ** 2 * 1e-4,
            "z": rng.standard_normal(500),
            "x": rng.standard_normal(500)}


def test_filters_match_loop(series):
    eps2 = series["eps2"]
    np.testing.assert_allclose(
        kernels.garch_filter(eps2, 1e-6, 0.1, 0.85, 2e-5),
        _oracles.garch_filter_loop(eps2, 1e-6, 0.1, 0.85, 2e-5), rtol=1e-13)


# one block; one short of a block, exactly one, one over; three with a short
# last one; three full blocks and one value
@pytest.mark.parametrize("n", [500, 4095, 4096, 4097, 9000, 3 * 4096 + 1])
@pytest.mark.parametrize("alpha, beta", [(0.1, 0.85), (0.0, 0.5), (0.3, 0.0), (0.05, 0.9494)])
def test_garch_score_matches_loop(alpha, beta, n):
    eps2 = np.random.default_rng(21).standard_normal(n) ** 2 * 1e-4
    omega = 2e-6
    h = kernels.garch_filter(eps2, omega, alpha, beta, omega / (1.0 - alpha - beta))
    got = kernels.garch_score(eps2, h, omega, alpha, beta)
    want = _oracles.garch_score_loop(eps2, h, omega, alpha, beta)
    # entries differ in scale by orders of magnitude (omega is 1e-6), so each
    # is held to its own size; the kernel sums block by block
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=1e-14 * np.abs(w).max())


@pytest.mark.parametrize("beta", [0.0, 1e-3, 0.85, 0.9995])
def test_first_order_recursion_matches_lfilter(beta):
    # the IIR filter the recursion replaced; one row and stacked rows
    from scipy.signal import lfilter

    forcing = np.random.default_rng(23).standard_normal((3, 5000)) ** 2
    want = lfilter([1.0], [1.0, -beta], forcing, axis=1)
    for got, ref in ((kernels._first_order_recursion(forcing.copy(), beta), want),
                     (kernels._first_order_recursion(forcing[0].copy(), beta), want[0])):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-14


def test_simulators_match_loop(series):
    z = series["z"]
    # theta from a near random walk to near white noise; the scan's error
    # grows with the path's largest value, not with each value
    for theta in (1e-5, 0.05, 2.0):
        want = _oracles.ou_path_loop(z, 0.3, 0.1, math.exp(-theta), 0.01)
        np.testing.assert_allclose(
            kernels.ou_path(z, 0.3, 0.1, math.exp(-theta), 0.01), want,
            rtol=1e-12, atol=1e-14 * np.abs(want).max())


# (omega, alpha, gamma, beta, burn, n, innovation)
GARCH_SIM_CASES = {
    "garch": (1e-6, 0.10, 0.0, 0.85, 100, 2000, "normal"),
    "gjr": (1e-6, 0.05, 0.10, 0.85, 100, 2000, "normal"),
    "student_t": (1e-6, 0.10, 0.0, 0.85, 100, 2000, "student_t"),
    "gjr_student_t": (1e-6, 0.05, 0.10, 0.85, 100, 2000, "student_t"),
    "near_igarch": (1e-7, 0.05, 0.0, 0.9495, 100, 2000, "normal"),
    "beta_zero": (1e-6, 0.30, 0.0, 0.0, 100, 2000, "normal"),
    "alpha_zero": (1e-6, 0.0, 0.0, 0.90, 100, 2000, "normal"),
    "no_burn": (1e-6, 0.10, 0.0, 0.85, 0, 2000, "normal"),
    "one_step": (1e-6, 0.10, 0.0, 0.85, 0, 1, "normal"),
    "one_kept_step": (1e-6, 0.05, 0.10, 0.85, 100, 1, "normal"),
}


@pytest.mark.parametrize("case", list(GARCH_SIM_CASES.values()), ids=list(GARCH_SIM_CASES))
def test_garch_sim_matches_loop(case):
    omega, alpha, gamma, beta, burn, n, innovation = case
    rng = np.random.default_rng(22)
    if innovation == "student_t":
        z = rng.standard_t(4.0, size=burn + n) * math.sqrt(0.5)
    else:
        z = rng.standard_normal(burn + n)
    args = (z, omega, alpha, gamma, beta, omega / (1.0 - alpha - 0.5 * gamma - beta), burn)
    got, want = kernels.garch_sim(*args), _oracles.garch_sim_loop(*args)
    for g, w in zip(got, want):  # (r, h)
        assert g.shape == w.shape == (n,)
        np.testing.assert_allclose(g, w, rtol=1e-13)


def test_rolling_moments_match_loop(series):
    x = series["x"]
    for stride in (1, 3):
        np.testing.assert_allclose(
            kernels.rolling_var(x, 21, stride), _oracles.rolling_var_loop(x, 21, stride),
            rtol=1e-11)
        np.testing.assert_allclose(
            kernels.rolling_mean(x, 21, stride), _oracles.rolling_mean_loop(x, 21, stride),
            atol=1e-14)


# elements per block: one row per block, a few rows, a block larger than the input
@pytest.mark.parametrize("block_elements", [1, 60, 1 << 18])
@pytest.mark.parametrize("n, window, stride", [(500, 21, 1), (500, 21, 3), (500, 2, 7),
                                               (3001, 1440, 1), (1441, 1440, 5), (21, 21, 1)])
def test_rolling_blocks_equal_one_whole_view(monkeypatch, block_elements, n, window, stride):
    # rows reduce alone, so any blocking gives the bits of the whole view
    monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", block_elements)
    x = np.random.default_rng(24).standard_normal(n) * 0.01 + 0.003
    win = sliding_window_view(x, window)[::stride]
    for got, want in ((kernels.rolling_var(x, window, stride), win.var(axis=1, ddof=1)),
                      (kernels.rolling_mean(x, window, stride), win.mean(axis=1))):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_rolling_var_memory_does_not_grow_with_the_window():
    # one day of one-minute bars: the whole view's centred copy is 1.15 GB
    x = np.random.default_rng(25).standard_normal(100_000)
    tracemalloc.start()
    try:
        kernels.rolling_var(x, 1440, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6


# (n, block_len, n_lags, n_resamples); the last block holds
# n - (ceil(n / block_len) - 1) * block_len values
ZUMBACH_SHAPES = {
    "last_block_shorter_than_lags": (500, 8, 5, 40),
    "lags_eq_block_last_block_short": (1330, 11, 11, 20),
    "lags_eq_block": (1331, 11, 11, 20),
    "lags_gt_block_fallback": (110, 5, 10, 30),
    "single_resample": (500, 8, 5, 1),
    "one_lag": (2000, 13, 1, 10),
    "lags_span_three_blocks": (131, 3, 10, 25),
    "lags_gt_block_last_block_short": (333, 7, 10, 25),
    "lags_gt_block_last_block_of_one": (111, 5, 12, 10),
    "block_of_one": (60, 1, 4, 10),
}


def _zumbach_case(n, block_len, n_lags, n_res, wrap=False):
    rng = np.random.default_rng(n * 31 + n_lags)
    a = rng.standard_normal(n) ** 2 + 0.1
    b = rng.standard_normal(n) ** 2
    starts = rng.integers(0, n, size=(n_res, math.ceil(n / block_len)), dtype=np.int64)
    if wrap:
        starts[:, ::2] = n - 1
    return a, b, starts, block_len, n_lags


# fixed ids, so a kernel rename does not rename the test cases
@pytest.mark.parametrize("kernel", [kernels.zumbach_boot], ids=["zumbach_boot_np"])
@pytest.mark.parametrize("wrap", [False, True], ids=["random_starts", "starts_at_n_minus_1"])
@pytest.mark.parametrize("shape", list(ZUMBACH_SHAPES.values()), ids=list(ZUMBACH_SHAPES))
def test_zumbach_boot_matches_loop(kernel, shape, wrap):
    args = _zumbach_case(*shape, wrap=wrap)
    ref = _oracles.zumbach_boot_loop(*args)
    got = kernel(*args)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_zumbach_boot_identity_resample_gives_z():
    """Blocks laid end to end from 0 rebuild the series itself, so the
    bootstrap statistic must equal Z on the original pair."""
    n, block_len, n_lags = 1000, 10, 7
    a, b, _, _, _ = _zumbach_case(n, block_len, n_lags, 1)
    starts = (np.arange(n // block_len, dtype=np.int64) * block_len)[None, :]
    ref = _oracles.zumbach_boot_loop(a, b, starts, block_len, n_lags)[0]
    np.testing.assert_allclose(kernels.zumbach_boot(a, b, starts, block_len, n_lags)[0],
                               ref, rtol=0, atol=1e-10 * np.abs(ref).max())


@pytest.mark.parametrize("level", [0.0, 3e-6], ids=["zero", "constant"])
def test_zumbach_boot_resamples_that_miss_the_only_jump_are_nan(level):
    # b is level except at one point; a resample without that point has a
    # constant b, whose variance rounds to 0, a tiny negative or a tiny
    # positive number: no warning, a NaN row, and no huge Z from the others
    n, n_lags = 5999, 10
    rng = np.random.default_rng(26)
    a = np.abs(rng.standard_normal(n)) + 0.1
    b = np.full(n, level)
    b[2000] = 1e-2
    block_len = math.ceil(n ** (1 / 3))
    starts = rng.integers(0, n, size=(1000, math.ceil(n / block_len)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = kernels.zumbach_boot(a, b, starts, block_len, n_lags)
    nan_rows = np.isnan(out).all(axis=1)
    lengths = np.full(starts.shape[1], block_len)
    lengths[-1] = n - (starts.shape[1] - 1) * block_len
    holds_jump = ((2000 - starts) % n < lengths).any(axis=1)
    assert np.array_equal(nan_rows, ~holds_jump)
    assert 300 < nan_rows.sum() < 450
    assert np.all(np.abs(out[~nan_rows]) <= 1.0)


def test_zumbach_boot_undefined_rows_match_loop():
    n, block_len, n_lags = 200, 6, 3
    rng = np.random.default_rng(27)
    a = rng.standard_normal(n) ** 2 + 0.1
    b = np.full(n, 2e-4)
    b[50] = 0.3
    starts = rng.integers(0, n, size=(30, math.ceil(n / block_len)))
    ref = _oracles.zumbach_boot_loop(a, b, starts, block_len, n_lags)
    got = kernels.zumbach_boot(a, b, starts, block_len, n_lags)
    assert 0 < np.isnan(ref).all(axis=1).sum() < 30
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))
    ok = ~np.isnan(ref)
    np.testing.assert_allclose(got[ok], ref[ok], rtol=0, atol=1e-10 * np.abs(ref[ok]).max())


@pytest.mark.parametrize("shape", list(ZUMBACH_SHAPES.values()), ids=list(ZUMBACH_SHAPES))
def test_zumbach_boot_int32_starts_give_the_int64_bits(shape):
    a, b, starts, block_len, n_lags = _zumbach_case(*shape, wrap=True)
    want = kernels.zumbach_boot(a, b, starts, block_len, n_lags)
    got = kernels.zumbach_boot(a, b, starts.astype(np.int32), block_len, n_lags)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("per_pass", [1, 3, None], ids=["one", "three", "all"])
@pytest.mark.parametrize("shape", list(ZUMBACH_SHAPES.values()), ids=list(ZUMBACH_SHAPES))
def test_zumbach_boot_bits_do_not_depend_on_its_blocking(monkeypatch, shape, per_pass):
    # the block table is written over the prefix sums a row block at a
    # time, here one row at a time (shorter than any block), and each
    # resample's row is computed alone, in passes of any size
    a, b, starts, block_len, n_lags = _zumbach_case(*shape, wrap=True)
    want = kernels.zumbach_boot(a, b, starts, block_len, n_lags)
    monkeypatch.setattr(kernels, "_BLOCK_ELEMENTS", 1)
    monkeypatch.setattr(kernels, "_resamples_per_pass",
                        lambda *args: per_pass or starts.shape[0])
    got = kernels.zumbach_boot(a, b, starts, block_len, n_lags)
    assert got.tobytes() == want.tobytes()


def test_zumbach_boot_memory_is_one_table_of_the_series():
    # F11 at 1e5 bars: the prefix table (n + block_len + 1) x (w + 4) is
    # 11.2 MB, and a pass of 8 or more resamples gathers about 8 MB more;
    # a table of the windows of every start would add 16 MB
    n, n_lags = 100_000, 10
    rng = np.random.default_rng(29)
    a = np.abs(rng.standard_normal(n)) + 0.1
    b = np.abs(rng.standard_normal(n)) + 0.1
    block_len = math.ceil(n ** (1 / 3))
    n_blocks = math.ceil(n / block_len)
    starts = rng.integers(0, n, size=(1001, n_blocks)).astype(np.int32)
    assert kernels._resamples_per_pass(n_blocks, 1, n_lags) >= 8
    tracemalloc.start()
    try:
        kernels.zumbach_boot(a, b, starts, block_len, n_lags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26e6


# ---------------------------------------------------------------------------
# CSV cells: `csv_lines` against the cell-by-cell rule, byte for byte
# ---------------------------------------------------------------------------

@pytest.fixture
def vectorized(monkeypatch):
    """Blocks of any length through the whole-column passes, which blocks
    shorter than kernels._VECTOR_ROWS skip."""
    monkeypatch.setattr(kernels, "_VECTOR_ROWS", 1)


def _assert_lines_match_loop(arrays):
    got, want = kernels.csv_lines(arrays), _oracles.csv_lines_loop(arrays)
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        k = next(i for i, (a, b) in enumerate(zip(g, w)) if a != b)
        pytest.fail(f"line {k} differs: {g[k]!r} != {w[k]!r}")


def _with_neighbours(x):
    x = np.asarray(x, dtype=np.float64)
    x = np.concatenate([x, np.nextafter(x, 0.0), np.nextafter(x, np.inf)])
    return np.concatenate([x, -x])


def _certified(x):
    return kernels._shortest(np.asarray(x, dtype=np.float64))[3]


def test_csv_lines_match_loop_on_random_bit_patterns():
    # every float64 bit pattern is as likely: both signs, subnormals, huge
    # values, infinities and NaNs; next to them float32 patterns and plain
    # normal draws, four columns to a line
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2 ** 64, size=(2, 100_000), dtype=np.uint64).view(np.float64)
    f32 = rng.integers(0, 2 ** 32, size=100_000, dtype=np.uint64).astype(np.uint32).view(
        np.float32)
    _assert_lines_match_loop([bits[0], f32, bits[1], rng.standard_normal(100_000)])


def test_csv_lines_match_loop_on_random_patterns_in_the_certified_range():
    rng = np.random.default_rng(1)
    lo, hi = np.array([1e-6, 1e16]).view(np.int64)
    v = rng.integers(lo, hi, size=200_000).view(np.float64) * rng.choice([-1.0, 1.0], 200_000)
    _assert_lines_match_loop([v])
    assert _certified(v).mean() > 0.95


def test_csv_lines_match_loop_at_powers_of_two_and_ten():
    _assert_lines_match_loop([_with_neighbours(
        [2.0 ** i for i in range(-40, 70)] + [10.0 ** i for i in range(-12, 20)])])


def test_csv_lines_match_loop_on_short_decimals(vectorized):
    # k 10^j for k < 10^4, the halfway decimals (k + 0.5) 10^-3, and the
    # values just below a power of ten, such as 9.999999999999999e-06
    k = np.arange(1, 10_000, dtype=np.float64)
    powers = 10.0 ** np.arange(-12, 20)
    below = np.nextafter(powers, 0.0)
    _assert_lines_match_loop([(k[:, None] * 10.0 ** np.arange(-8, 18)).ravel()])
    _assert_lines_match_loop([(np.arange(200_000) + 0.5) * 1e-3])
    _assert_lines_match_loop([np.concatenate([below, np.nextafter(below, 0.0), -below])])


def test_csv_lines_match_loop_on_integers_of_every_length():
    rng = np.random.default_rng(2)
    digits = np.arange(1, 20)
    edges = np.concatenate([10 ** (digits - 1), 10 ** digits - 1]).astype(np.int64)
    drawn = rng.integers(1, 10, size=(50, 1)) * 10 ** (digits - 1) \
        + rng.integers(0, 10 ** (digits - 1), size=(50, digits.size), dtype=np.int64)
    signed = np.concatenate([edges, drawn.ravel(), [0, 2 ** 63 - 1, -2 ** 63]])
    signed = np.concatenate([signed, -signed[signed > -2 ** 63]])
    _assert_lines_match_loop([signed])
    unsigned = np.concatenate([np.abs(signed[signed > -2 ** 63]).astype(np.uint64),
                               np.array([10 ** 19, 2 ** 64 - 1], dtype=np.uint64)])
    _assert_lines_match_loop([unsigned, unsigned.astype(np.int32), unsigned.astype(np.uint8)])


@pytest.mark.parametrize("vector_rows", [1, kernels._VECTOR_ROWS])
def test_csv_lines_keep_every_dtype_rule(monkeypatch, vector_rows):
    # NaN as an empty cell, -0.0, float16, and the dtypes written cell by
    # cell (bool, object, longdouble) in one block with the whole-column
    # ones, which a block this short skips by default
    monkeypatch.setattr(kernels, "_VECTOR_ROWS", vector_rows)
    cols = [np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5]),
            np.array([1.5, np.nan, -2.0, 65504.0, 1e-3, 0.1], dtype=np.float16),
            np.array([True, False] * 3),
            np.array([1, 2.5, True, np.nan, 10 ** 20, -3], dtype=object),
            np.array([0.1, 1.0, np.nan, 1e300, -2.5, 3.0], dtype=np.longdouble),
            np.arange(-3, 3)]
    _assert_lines_match_loop(cols)
    assert kernels.csv_lines([np.array([]), np.array([], dtype=np.int64)]) == ""


def _scaled(v):
    """v 10^k as an exact fraction, for the k that puts it in [1e16, 1e17),
    and half its gaps to the neighbouring doubles, scaled alike."""
    v = Fraction(v)
    k = 16 - math.floor(math.log10(v))
    k -= v * 10 ** k >= 10 ** 17
    up, down = (Fraction(np.nextafter(float(v), t)) for t in (np.inf, 0.0))
    return v * 10 ** k, (up - v) / 2 * 10 ** k, (v - down) / 2 * 10 ** k


def test_every_fallback_reason_goes_to_repr(vectorized):
    # out of the certified magnitudes [1e-6, 1e16); 1e-6 itself, whose double
    # lies just below 10^-6; zero and the infinities
    out_of_range = [5e-324, 1e-300, 9.99e-7, 1e-6, 1e16, 1.5e17, 1.7976931348623157e308,
                    0.0, -0.0, np.inf, -np.inf]
    # an end of the rounding interval on an integer: 2^53 + 2 has gaps of 2
    v = 2.0 ** 53 + 2
    x, up, down = _scaled(v)
    assert (x + up).denominator == 1 and (x - down).denominator == 1
    interval_end = [v, -v]
    # a tie between the two nearest candidates: 2^50 + 0.25 reads
    # 11258999068426242.5 at 10^k, with 11258999068426242 and ...243 inside
    w = 2.0 ** 50 + 0.25
    x, up, down = _scaled(w)
    assert x - math.floor(x) == Fraction(1, 2) and up > Fraction(1, 2) and down > Fraction(1, 2)
    tie = [w, -w]
    for values in (out_of_range, interval_end, tie):
        assert not _certified(values).any(), values
        _assert_lines_match_loop([np.array(values)])
    # integers of 18 digits and more go to str
    _assert_lines_match_loop([np.array([10 ** 17, -10 ** 17, 10 ** 17 - 1, 2 ** 63 - 1])])


def test_simulated_columns_are_certified():
    # the fast path, not repr, formats real columns: every simulated price,
    # and every nonzero volume
    from stylfacts.simulate import GjrSpec, simulate
    s = simulate(GjrSpec(n_steps=20_000, seed=3))
    for col in (s.open, s.high, s.low, s.close, s.volume[s.volume > 0]):
        assert _certified(col).all()


@pytest.mark.parametrize("vector_rows", [1, kernels._VECTOR_ROWS])
@pytest.mark.parametrize("rows", [1, 7])
def test_written_bytes_do_not_depend_on_the_block(monkeypatch, tmp_path, rows, vector_rows):
    # 301 rows: one block by default; blocks of 1 and 7 rows go cell by
    # cell unless every block takes the whole-column passes
    from stylfacts import series
    from stylfacts.report import write_curve_csv
    from stylfacts.simulate import GbmSpec, simulate
    s = simulate(GbmSpec(n_steps=300, seed=5))
    v = s.volume.copy()
    v[::4] = np.nan
    s = series.PriceSeries(s.timestamps, s.open, s.high, s.low, s.close, v)
    curve = {"lag": np.arange(len(s)), "value": s.close - 1.0, "flag": s.close > 1.0}

    def written():
        buf = io.StringIO()
        series.write_csv(s, buf)
        write_curve_csv(str(tmp_path / "c.csv"), curve)
        return buf.getvalue(), (tmp_path / "c.csv").read_bytes()

    default = written()
    monkeypatch.setattr(kernels, "_VECTOR_ROWS", vector_rows)
    # write_csv's six columns and the curve's three
    monkeypatch.setattr(series, "_WRITE_BLOCK_CELLS", 6 * rows)
    series_blocks = written()[0]
    monkeypatch.setattr(series, "_WRITE_BLOCK_CELLS", 3 * rows)
    assert (series_blocks, written()[1]) == default
