"""Each kernel against its element-by-element `_*_loop` twin.

Tolerances come from float64 roundoff, not from the observed error.  The
filters and rolling moments reorder short sums.  The Zumbach kernels
decompose the statistic another way (prefix sums over the whole series,
boundary products), so they are held to 1e-10 of the largest |Z| of the
reference.
"""

import math

import numpy as np
import pytest

from stylfacts import kernels


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
        kernels._garch_filter_loop(eps2, 1e-6, 0.1, 0.85, 2e-5), rtol=1e-13)


def test_simulators_match_loop(series):
    z = series["z"]
    np.testing.assert_allclose(
        kernels.ou_path(z, 0.3, 0.1, math.exp(-0.05), 0.01),
        kernels._ou_path_loop(z, 0.3, 0.1, math.exp(-0.05), 0.01), rtol=1e-12)


def test_rolling_moments_match_loop(series):
    x = series["x"]
    for stride in (1, 3):
        np.testing.assert_allclose(
            kernels.rolling_var(x, 21, stride), kernels._rolling_var_loop(x, 21, stride),
            rtol=1e-11)
        np.testing.assert_allclose(
            kernels.rolling_mean(x, 21, stride), kernels._rolling_mean_loop(x, 21, stride),
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
@pytest.mark.parametrize("kernel", [kernels.zumbach_boot, kernels._zumbach_boot_gather],
                         ids=["zumbach_boot_np", "_zumbach_boot_gather"])
@pytest.mark.parametrize("wrap", [False, True], ids=["random_starts", "starts_at_n_minus_1"])
@pytest.mark.parametrize("shape", list(ZUMBACH_SHAPES.values()), ids=list(ZUMBACH_SHAPES))
def test_zumbach_boot_matches_loop(kernel, shape, wrap):
    args = _zumbach_case(*shape, wrap=wrap)
    ref = kernels._zumbach_boot_loop(*args)
    got = kernel(*args)
    assert got.shape == ref.shape
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10 * np.abs(ref).max())


def test_zumbach_boot_is_the_range_sum_kernel(monkeypatch):
    """The direct gather runs only when n_lags > block_len."""
    calls = []
    monkeypatch.setattr(kernels, "_zumbach_boot_gather", lambda *a: calls.append(a[3:]))
    kernels.zumbach_boot(*_zumbach_case(*ZUMBACH_SHAPES["lags_eq_block"]))
    assert calls == []
    kernels.zumbach_boot(*_zumbach_case(*ZUMBACH_SHAPES["lags_gt_block_fallback"]))
    assert calls == [(5, 10)]


def test_zumbach_boot_identity_resample_gives_z():
    """Blocks laid end to end from 0 rebuild the series itself, so the
    bootstrap statistic must equal Z on the original pair."""
    n, block_len, n_lags = 1000, 10, 7
    a, b, _, _, _ = _zumbach_case(n, block_len, n_lags, 1)
    starts = (np.arange(n // block_len, dtype=np.int64) * block_len)[None, :]
    ref = kernels.zumbach_z(a, b, n_lags)
    np.testing.assert_allclose(kernels.zumbach_boot(a, b, starts, block_len, n_lags)[0],
                               ref, rtol=0, atol=1e-10 * np.abs(ref).max())
