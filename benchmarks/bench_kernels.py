"""Timing of each kernel, checked against its element-by-element loop.

The header names numpy's BLAS library, its build configuration and the
CPU's SIMD extensions (`np.show_config(mode="dicts")`): the Zumbach
bootstrap's matrix product runs in that BLAS, and einsum's loops, which
every other product over a series uses, run on those SIMD kernels.

For every kernel the script first runs it and its `*_loop` twin
(tests/_oracles.py) on a small input (n=2000) and prints their largest
difference relative to the twin's largest magnitude; then it times the
kernel at --n (best of --repeat).  For the Zumbach bootstrap it also prints
the kernel's `tracemalloc` peak at --n, F11's largest allocation.  Then it
times `stats.acf(x, 50)` at --n in a fresh interpreter: the first call and a
warm one, each as wall time and `time.process_time()` CPU, which counts
every thread of the process, so BLAS helper threads that spin show up in it.

The I/O section times the two CSV writers at --n rows, `series.write_csv` on
a simulated series and `report.write_curve_csv` on a curve shaped like
`volatility.csv` (an int64 column and three float columns), next to the
row-at-a-time oracles in tests/test_series.py, after checking at n=2000
that each writer's bytes equal its oracle's.  Then it times
`import stylfacts` in a fresh interpreter against a bare interpreter start,
and the first call of each scientific function on `analyze`'s path that
imports scipy (`garch_filter`, `ks_test_normal`, `anderson_darling_normal`,
`qq_data`, on 2000 points), each in a fresh interpreter after
`import stylfacts`: the call's wall and CPU time, the process's peak RSS
and the scipy subpackages loaded after it.

The fit section times `fit_garch11` on a simulated GARCH and a GBM series of
--n returns, with its likelihood evaluations, next to the Nelder-Mead fit
it replaced (kept in tests/test_fitting.py as an oracle), and prints the
objective gap per return.  It times `fit_power_law` on the |r| ACF of the
GARCH series (lags 1..100, as F2 fits it) next to the general
Levenberg-Marquardt fit it replaced (also kept in tests/test_fitting.py).
Last, it times `adf_test` on the 21-bar volatility of the GARCH series next
to its design-matrix form (kept in tests/test_stats.py), each with its
`tracemalloc` peak.

    PYTHONPATH=src python3 benchmarks/bench_kernels.py [--n 100000] [--repeat 3] [--boot 1000]
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import scipy

import stylfacts
from stylfacts import kernels
from stylfacts.fitting import fit_garch11, fit_power_law
from stylfacts.report import write_curve_csv
from stylfacts.series import compute_log_returns, write_csv
from stylfacts.simulate import GarchSpec, GbmSpec, simulate
from stylfacts.stats import acf, adf_test
from stylfacts.volatility import VolatilityWindow, rolling_volatility

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import _oracles  # noqa: E402
from test_fitting import _fit_garch11_nelder_mead, _fit_power_law_lm  # noqa: E402
from test_series import _write_csv_loop, _write_curve_csv_loop  # noqa: E402
from test_stats import _adf_design_matrix  # noqa: E402

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
    h = kernels.garch_filter(eps2, 1e-6, 0.1, 0.85, 2e-5)
    return {
        "garch_filter": (eps2, 1e-6, 0.1, 0.85, 2e-4),
        "garch_score": (eps2, h, 1e-6, 0.1, 0.85),
        "garch_sim": (z, 1e-6, 0.1, 0.0, 0.85, 2e-4, 0),
        "ou_path": (z, 0.0, 0.0, math.exp(-0.05), 0.01),
        "rolling_var": (x, 21, 1),
        "rolling_mean": (x, 21, 1),
        "zumbach_boot": boot,
    }


# row label -> (kernel, loop twin)
CASES = {
    "garch_filter": (kernels.garch_filter, _oracles.garch_filter_loop),
    "garch_score": (kernels.garch_score, _oracles.garch_score_loop),
    "garch_sim": (kernels.garch_sim, _oracles.garch_sim_loop),
    "ou_path": (kernels.ou_path, _oracles.ou_path_loop),
    "rolling_var": (kernels.rolling_var, _oracles.rolling_var_loop),
    "rolling_mean": (kernels.rolling_mean, _oracles.rolling_mean_loop),
    "zumbach_boot": (kernels.zumbach_boot, _oracles.zumbach_boot_loop),
}


def rel_diff(got, ref):
    got = got if isinstance(got, tuple) else (got,)
    ref = ref if isinstance(ref, tuple) else (ref,)
    return max(float(np.max(np.abs(u - v)) / max(np.max(np.abs(v)), 1e-300))
               for u, v in zip(got, ref))


def curve_columns(n, seed):
    """volatility.csv's shape: timestamps, then three estimators whose first
    window-1 values are NaN."""
    rng = np.random.default_rng(seed)
    cols = {"timestamp": 946_684_800 + 86_400 * np.arange(n, dtype=np.int64)}
    for name in ("basic", "parkinson", "rogers_satchell"):
        v = np.abs(rng.standard_normal(n)) * 0.01
        v[:20] = np.nan
        cols[name] = v
    return cols


def write_series(write, series):
    """The bytes `write(series, file)` puts in a real file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "s.csv")
        with open(path, "w", newline="") as f:
            write(series, f)
        return Path(path).read_bytes()


def write_curve(write, columns):
    """The bytes `write(path, columns)` puts in a real file."""
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "c.csv")
        write(path, columns)
        return Path(path).read_bytes()


def traced_peak(fn):
    """fn's peak of numpy and Python allocations, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def child_env():
    src = os.path.dirname(os.path.dirname(os.path.abspath(stylfacts.__file__)))
    return dict(os.environ, PYTHONPATH=src)


def start_up(code, repeat):
    env = child_env()
    return best_of(lambda: subprocess.run([sys.executable, "-c", code], env=env, check=True),
                   repeat)


def blas_header():
    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (f"numpy {np.__version__}, BLAS {blas.get('name')} {blas.get('version')} "
            f"({blas.get('openblas configuration', 'no configuration string')}), "
            f"OPENBLAS_NUM_THREADS={threads}, SIMD "
            f"{' '.join(config['SIMD Extensions'].get('found', []))}")


_ACF_CALLS = """
import sys, time
import numpy as np
from stylfacts.stats import acf
x = np.random.default_rng(0).standard_normal(int(sys.argv[1]))
for _ in range(2):
    t0, c0 = time.perf_counter(), time.process_time()
    acf(x, 50)
    print(time.perf_counter() - t0, time.process_time() - c0)
"""


def bench_acf_cold(n):
    out = subprocess.run([sys.executable, "-c", _ACF_CALLS, str(n)], env=child_env(),
                         capture_output=True, text=True, check=True).stdout.split()
    wall0, cpu0, wall1, cpu1 = map(float, out)
    print(f"acf(x, 50) at n={n}, fresh interpreter: first call {wall0 * 1e3:.1f}ms wall, "
          f"{cpu0 * 1e3:.1f}ms CPU; warm {wall1 * 1e3:.1f}ms wall, {cpu1 * 1e3:.1f}ms CPU")


# peak RSS from VmHWM, which starts afresh at exec; ru_maxrss would carry
# over the (larger) peak of this script, the process that forked the child
_FIRST_CALL = """
import json, sys, time
import numpy as np
from stylfacts import kernels, stats
x = np.random.default_rng(0).standard_normal(2000)
calls = {
    "garch_filter": lambda: kernels.garch_filter(x * x, 1e-6, 0.1, 0.85, 1e-5),
    "ks_test_normal": lambda: stats.ks_test_normal(x),
    "anderson_darling_normal": lambda: stats.anderson_darling_normal(x),
    "qq_data": lambda: stats.qq_data(x),
}
t0, c0 = time.perf_counter(), time.process_time()
calls[sys.argv[1]]()
print(json.dumps({"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0,
                  "rss_mb": [int(line.split()[1]) / 1024 for line in open("/proc/self/status")
                             if line.startswith("VmHWM")][0],
                  "modules": sorted(m for m in sys.modules if m.startswith("scipy."))}))
"""


def bench_first_calls(repeat):
    """Each first call in a fresh interpreter; the run with the least wall
    time of `repeat`."""
    print(f"{'first call, fresh':<24} {'wall':>9} {'CPU':>9} {'peak RSS':>9}  scipy subpackages")
    for name in ("garch_filter", "ks_test_normal", "anderson_darling_normal", "qq_data"):
        runs = [json.loads(subprocess.run([sys.executable, "-c", _FIRST_CALL, name],
                                          env=child_env(), capture_output=True, text=True,
                                          check=True).stdout) for _ in range(repeat)]
        best = min(runs, key=lambda r: r["wall"])
        loaded = [s for s in scipy.submodules if f"scipy.{s}" in best["modules"]]
        print(f"{name:<24} {best['wall'] * 1e3:>7.0f}ms {best['cpu'] * 1e3:>7.0f}ms "
              f"{best['rss_mb']:>6.1f} MB  {', '.join(loaded) or 'none'}")


def bench_io(n, repeat):
    small_series = simulate(GbmSpec(n_steps=CHECK_N - 1, seed=1))
    big_series = simulate(GbmSpec(n_steps=n - 1, seed=0))
    rows = [
        ("write_csv", write_series, write_csv, _write_csv_loop, small_series, big_series),
        ("write_curve_csv", write_curve, write_curve_csv, _write_curve_csv_loop,
         curve_columns(CHECK_N, 1), curve_columns(n, 0)),
    ]
    print(f"\n{'I/O, ' + str(n) + ' rows':<20} {'time':>11} {'row oracle':>11}  bytes vs oracle")
    for name, run, write, oracle, small, big in rows:
        same = "identical" if run(write, small) == run(oracle, small) else "DIFFER"
        t_new = best_of(lambda: run(write, big), repeat)
        t_old = best_of(lambda: run(oracle, big), repeat)
        print(f"{name:<20} {t_new * 1e3:>9.1f}ms {t_old * 1e3:>9.1f}ms  {same}")
    bare = start_up("pass", repeat)
    pkg = start_up("import stylfacts", repeat)
    print(f"{'import stylfacts':<20} {pkg * 1e3:>9.1f}ms  (fresh interpreter; "
          f"a bare start takes {bare * 1e3:.1f}ms)")
    bench_first_calls(repeat)


def bench_fits(n, repeat):
    sim = dict(n_steps=n, seed=0, substeps=1, extremes="substep", volume_mode="none")
    series = {"garch": simulate(GarchSpec(**sim)), "gbm": simulate(GbmSpec(**sim))}
    print(f"\n{'fit, ' + str(n) + ' returns':<20} {'time':>11} {'evals':>6} {'old form':>11} "
          f"{'evals':>6}  objective gap per return")
    for name, ps in series.items():
        r = compute_log_returns(ps).values
        fit, oracle = fit_garch11(r), _fit_garch11_nelder_mead(r)
        t_new = best_of(lambda: fit_garch11(r), repeat)
        t_old = best_of(lambda: _fit_garch11_nelder_mead(r), repeat)
        gap = (oracle.log_likelihood - fit.log_likelihood) / len(r)
        print(f"{'fit_garch11 ' + name:<20} {t_new * 1e3:>9.1f}ms {fit.n_evaluations:>6} "
              f"{t_old * 1e3:>9.1f}ms {oracle.n_evaluations:>6}  {gap:+.1e}")
    r = compute_log_returns(series["garch"]).values
    lags = np.arange(1, 101, dtype=float)
    values = acf(np.abs(r), 100).values
    fit, oracle = fit_power_law(lags, values), _fit_power_law_lm(lags, values)
    t_new = best_of(lambda: fit_power_law(lags, values), repeat)
    t_old = best_of(lambda: _fit_power_law_lm(lags, values), repeat)
    print(f"{'fit_power_law':<20} {t_new * 1e3:>9.2f}ms {fit.n_iter:>6} {t_old * 1e3:>9.2f}ms "
          f"{oracle.n_iter:>6}  (evals: iterations; old form: Levenberg-Marquardt) beta drift "
          f"{abs(fit.beta - oracle.beta) / abs(oracle.beta):.1e}")

    vol = rolling_volatility(series["garch"], "basic", VolatilityWindow(21, 1)).values
    got, (want, want_lag) = adf_test(vol), _adf_design_matrix(vol)
    t_new = best_of(lambda: adf_test(vol), repeat)
    t_old = best_of(lambda: _adf_design_matrix(vol), repeat)
    mb_new = traced_peak(lambda: adf_test(vol))
    mb_old = traced_peak(lambda: _adf_design_matrix(vol))
    print(f"{'adf_test':<20} {t_new * 1e3:>9.1f}ms {'':>6} {t_old * 1e3:>9.1f}ms {'':>6}  "
          f"(design matrix) lag {got.lag} vs {want_lag}, statistic drift "
          f"{abs(got.statistic - want) / abs(want):.1e}; tracemalloc peak "
          f"{mb_new:.1f} MB vs {mb_old:.1f} MB")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=100_000)
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--boot", type=int, default=1000,
                    help="bootstrap resamples at --n (F11 draws 1000)")
    args = ap.parse_args()

    small = make_args(CHECK_N, 5, seed=1)
    big = make_args(args.n, args.boot, seed=0)

    print(blas_header())
    print(f"n={args.n}, {args.boot} bootstrap resamples, best of {args.repeat}; "
          f"loop check at n={CHECK_N}")
    print(f"{'kernel':<20} {'time':>11}  max rel diff vs loop")
    for name, (f, f_loop) in CASES.items():
        err = rel_diff(f(*small[name]), f_loop(*small[name]))
        t = best_of(lambda: f(*big[name]), args.repeat)
        print(f"{name:<20} {t * 1e3:>9.2f}ms  {err:.1e}")
    boot_mb = traced_peak(lambda: kernels.zumbach_boot(*big["zumbach_boot"]))
    print(f"zumbach_boot: tracemalloc peak {boot_mb:.1f} MB at n={args.n}")
    bench_acf_cold(args.n)
    bench_io(args.n, args.repeat)
    bench_fits(args.n, args.repeat)


if __name__ == "__main__":
    main()
