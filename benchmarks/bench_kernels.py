"""Timing of each numpy kernel, checked against its element-by-element loop.

For every kernel the script first runs the numpy version and its `_*_loop`
twin on a small input (n=2000) and prints their largest difference
relative to the twin's largest magnitude; then it times the numpy version at
--n (best of --repeat).  The Zumbach bootstrap is timed twice, once for the
range-sum kernel that `kernels.zumbach_boot` runs and once for the direct
gather it falls back to when n_lags > block_len.  Where numba is importable,
the compiled loops are timed as an extra column.

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
    neg = (rng.standard_normal(n) < 0).astype(np.float64)
    z = rng.standard_normal(n)
    x = rng.standard_normal(n)
    a = np.abs(rng.standard_normal(n)) + 0.1
    b = np.abs(rng.standard_normal(n)) + 0.1
    block_len = math.ceil(n ** (1 / 3))
    starts = rng.integers(0, n, size=(n_boot, math.ceil(n / block_len)), dtype=np.int64)
    boot = (a, b, starts, block_len, ZUMBACH_LAGS)
    return {
        "garch_filter": (eps2, 1e-6, 0.1, 0.85, 2e-4),
        "gjr_filter": (eps2, neg, 1e-6, 0.03, 0.1, 0.8, 2e-4),
        "garch_sim": (z, 1e-6, 0.1, 0.0, 0.85, 2e-4, 0),
        "ou_path": (z, 0.0, 0.0, math.exp(-0.05), 0.01),
        "rolling_var": (x, 21, 1),
        "rolling_mean": (x, 21, 1),
        "zumbach_boot": boot,
        "zumbach_boot_gather": boot,
    }


# row label -> (numpy kernel, loop twin, numba name or None)
CASES = {
    "garch_filter": (kernels.garch_filter_np, kernels._garch_filter_loop, "garch_filter_nb"),
    "gjr_filter": (kernels.gjr_filter_np, kernels._gjr_filter_loop, "gjr_filter_nb"),
    "garch_sim": (kernels.garch_sim_np, kernels._garch_sim_loop, "garch_sim_nb"),
    "ou_path": (kernels.ou_path_np, kernels._ou_path_loop, "ou_path_nb"),
    "rolling_var": (kernels.rolling_var_np, kernels._rolling_var_loop, "rolling_var_nb"),
    "rolling_mean": (kernels.rolling_mean_np, kernels._rolling_mean_loop, "rolling_mean_nb"),
    "zumbach_boot": (kernels.zumbach_boot_np, kernels._zumbach_boot_loop, "zumbach_boot_nb"),
    "zumbach_boot_gather": (kernels._zumbach_boot_gather, kernels._zumbach_boot_loop, None),
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
    have_nb = kernels._HAVE_NUMBA

    print(f"n={args.n}, {args.boot} bootstrap resamples, best of {args.repeat}; "
          f"loop check at n={CHECK_N}; numba {'present' if have_nb else 'absent'}")
    print(f"{'kernel':<20} {'numpy':>11} {'numba':>11}  max rel diff vs loop")
    times = {}
    for name, (f_np, f_loop, nb_name) in CASES.items():
        err = rel_diff(f_np(*small[name]), f_loop(*small[name]))
        times[name] = best_of(lambda: f_np(*big[name]), args.repeat)
        nb_col = "-"
        if have_nb and nb_name:
            f_nb = getattr(kernels, nb_name)
            f_nb(*small[name])  # compile before timing
            nb_col = f"{best_of(lambda: f_nb(*big[name]), args.repeat) * 1e3:.2f}ms"
        print(f"{name:<20} {times[name] * 1e3:>9.2f}ms {nb_col:>11}  {err:.1e}")
    print(f"zumbach_boot: range sums {times['zumbach_boot_gather'] / times['zumbach_boot']:.1f}x "
          f"faster than the direct gather")


if __name__ == "__main__":
    main()
