"""Timing of each kernel, checked against its element-by-element loop.

For every kernel with a `_*_loop` twin the script first runs both on a small
input (n=2000) and prints their largest difference relative to the twin's
largest magnitude; then it times the kernel at --n (best of --repeat).
`garch_sim` is a plain recursion with no twin, so it is only timed.  The
Zumbach bootstrap is timed twice, once for the range-sum kernel that
`kernels.zumbach_boot` runs and once for the direct gather it falls back to
when n_lags > block_len.

    python3 benchmarks/bench_kernels.py [--n 100000] [--repeat 3] [--boot 1000]
"""

import argparse
import math
import time

import numpy as np

from stylfacts import kernels

ZUMBACH_LAGS = 10
CHECK_N = 2000  # input length for the check against the loop twins


def best_of(fn, repeat):
    out = math.inf
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        out = min(out, time.perf_counter() - t0)
    return out


def make_args(n, n_boot, seed):
    """Arguments per kernel name, on inputs of length n."""
    rng = np.random.default_rng(seed)
    eps2 = rng.standard_normal(n) ** 2 * 1e-4
    z = rng.standard_normal(n)
    x = rng.standard_normal(n)
    a = np.abs(rng.standard_normal(n)) + 0.1
    b = np.abs(rng.standard_normal(n)) + 0.1
    block_len = math.ceil(n ** (1 / 3))
    starts = rng.integers(0, n, size=(n_boot, math.ceil(n / block_len)), dtype=np.int64)
    boot = (a, b, starts, block_len, ZUMBACH_LAGS)
    return {
        "garch_filter": (eps2, 1e-6, 0.1, 0.85, 2e-4),
        "garch_sim": (z, 1e-6, 0.1, 0.0, 0.85, 2e-4, 0),
        "ou_path": (z, 0.0, 0.0, math.exp(-0.05), 0.01),
        "rolling_var": (x, 21, 1),
        "rolling_mean": (x, 21, 1),
        "zumbach_boot": boot,
        "zumbach_boot_gather": boot,
    }


# row label -> (kernel, loop twin or None)
CASES = {
    "garch_filter": (kernels.garch_filter, kernels._garch_filter_loop),
    "garch_sim": (kernels.garch_sim, None),
    "ou_path": (kernels.ou_path, kernels._ou_path_loop),
    "rolling_var": (kernels.rolling_var, kernels._rolling_var_loop),
    "rolling_mean": (kernels.rolling_mean, kernels._rolling_mean_loop),
    "zumbach_boot": (kernels.zumbach_boot, kernels._zumbach_boot_loop),
    "zumbach_boot_gather": (kernels._zumbach_boot_gather, kernels._zumbach_boot_loop),
}


def rel_diff(got, ref):
    got = got if isinstance(got, tuple) else (got,)
    ref = ref if isinstance(ref, tuple) else (ref,)
    return max(float(np.max(np.abs(u - v)) / max(np.max(np.abs(v)), 1e-300))
               for u, v in zip(got, ref))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--boot", type=int, default=1000,
                    help="bootstrap resamples at --n (F11 draws 1000)")
    args = ap.parse_args()

    small = make_args(CHECK_N, 5, seed=1)
    big = make_args(args.n, args.boot, seed=0)

    print(f"n={args.n}, {args.boot} bootstrap resamples, best of {args.repeat}; "
          f"loop check at n={CHECK_N}")
    print(f"{'kernel':<20} {'time':>11}  max rel diff vs loop")
    times = {}
    for name, (f, f_loop) in CASES.items():
        err = "-" if f_loop is None else f"{rel_diff(f(*small[name]), f_loop(*small[name])):.1e}"
        times[name] = best_of(lambda: f(*big[name]), args.repeat)
        print(f"{name:<20} {times[name] * 1e3:>9.2f}ms  {err}")
    print(f"zumbach_boot: range sums {times['zumbach_boot_gather'] / times['zumbach_boot']:.1f}x "
          f"faster than the direct gather")


if __name__ == "__main__":
    main()
