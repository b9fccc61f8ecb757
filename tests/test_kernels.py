"""Each kernel against its element-by-element `*_loop` twin in `_oracles`.

Tolerances come from float64 roundoff, not from the observed error.  The
filters, the simulators' scans and the rolling moments reorder short sums.
The Zumbach kernels decompose the statistic another way (prefix sums over
the whole series, boundary products), so they are held to 1e-10 of the
largest |Z| of the reference.
"""

import math

import numpy as np
import pytest

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
    ref = kernels.zumbach_z(a, b, n_lags)
    np.testing.assert_allclose(kernels.zumbach_boot(a, b, starts, block_len, n_lags)[0],
                               ref, rtol=0, atol=1e-10 * np.abs(ref).max())
