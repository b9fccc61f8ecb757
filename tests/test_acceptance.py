"""Acceptance gate: nine criteria, one test per criterion.

Each test prints a single "criterion N: PASS/FAIL" line with the measured
numbers, then asserts.  Thresholds are written out literally next to each
check rather than shared through constants, so a drive-by edit cannot loosen
two criteria at once.

The control-matrix parameters are frozen: GARCH(1,1) omega=1e-6, alpha=0.10,
beta=0.85 (the recovery target); GJR omega=1e-6, alpha=0.03, gamma=0.24,
beta=0.75 (persistence 0.90, strong sign asymmetry).  Seeds are 1..20.
"""

import json
import math
import os
import time

import numpy as np
import pytest

from stylfacts.cli import main as cli_main
from stylfacts.facts import FactId, excursion_lengths, run_all_facts
from stylfacts.fitting import fit_garch11, fit_power_law, fit_tail_exponent
from stylfacts.series import compute_log_returns, write_csv
from stylfacts.simulate import GarchSpec, GbmSpec, GjrSpec, simulate
from stylfacts.stats import (acf, anderson_darling_normal, cross_correlation,
                             edf_exceedance)
from stylfacts.volatility import VolatilityWindow, rolling_volatility

SEEDS = range(1, 21)


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def _agg(r, k):
    m = len(r) // k
    return r[: m * k].reshape(m, k).sum(axis=1)


def _run_matrix(make_spec, facts):
    rows = []
    for seed in SEEDS:
        ps = simulate(make_spec(seed))
        out = run_all_facts(ps, facts=facts)
        rows.append({
            "statuses": {f: out[FactId(f)].status.value for f in facts},
            "zumbach": out[FactId.F11].curves.get("zumbach") if "F11" in facts else None,
            "returns": compute_log_returns(ps).values if "F1" in facts else None,
        })
    return rows


@pytest.fixture(scope="module")
def gbm_matrix():
    return _run_matrix(
        lambda s: GbmSpec(n_steps=100_000, seed=s, volume_mode="none"),
        ("F1", "F2", "F4", "F5", "F7", "F9", "F11"))


@pytest.fixture(scope="module")
def garch_matrix():
    return _run_matrix(
        lambda s: GarchSpec(n_steps=100_000, omega=1e-6, alpha=0.10, beta=0.85,
                            seed=s, volume_mode="none"),
        ("F2", "F4", "F10", "F11"))


@pytest.fixture(scope="module")
def gjr_matrix():
    return _run_matrix(
        lambda s: GjrSpec(n_steps=100_000, omega=1e-6, alpha=0.03, gamma=0.24,
                          beta=0.75, seed=s, volume_mode="none"),
        ("F2", "F4", "F5", "F9", "F10", "F11"))


def test_criterion_1_estimator_agreement():
    t0 = time.time()
    sums = {"basic": 0.0, "parkinson": 0.0, "rogers_satchell": 0.0}
    w = VolatilityWindow(21, 21)
    for seed in SEEDS:
        ps = simulate(GbmSpec(n_steps=100_000, sigma=0.01, mu=0.0, seed=seed,
                              substeps=16, volume_mode="none"))
        for kind in sums:
            sums[kind] += float(np.mean(rolling_volatility(ps, kind, w).values))
    means = {k: v / len(SEEDS) for k, v in sums.items()}
    elapsed = time.time() - t0
    within = {k: abs(m - 0.01) <= 0.05 * 0.01 for k, m in means.items()}
    ok = all(within.values()) and elapsed < 30.0
    detail = ("mean std per estimator " +
              ", ".join(f"{k}={m:.6f}" for k, m in means.items()) +
              f" (target 0.01 +/- 5%), {elapsed:.1f}s (< 30s)")
    assert _line(1, ok, detail)


def test_criterion_2_power_law_exactness():
    lags = np.arange(1, 201, dtype=float)
    worst_err, worst_resid = 0.0, 0.0
    for beta in (0.2, 0.3, 0.4):
        fit = fit_power_law(lags, lags ** -beta)
        worst_err = max(worst_err, abs(fit.beta - beta))
        worst_resid = max(worst_resid, fit.residual_variance)
    exact_ok = worst_err <= 1e-8 and worst_resid < 1e-16

    cover1 = cover3 = total = 0
    for beta in (0.2, 0.3, 0.4):
        clean = lags ** -beta
        for seed in range(500):
            rng = np.random.default_rng(20_000 + seed)
            fit = fit_power_law(lags, clean + 0.01 * rng.standard_normal(len(lags)))
            err = abs(fit.beta - beta)
            cover1 += err <= fit.beta_se
            cover3 += err <= 3.0 * fit.beta_se
            total += 1
    f1, f3 = cover1 / total, cover3 / total
    noisy_ok = f1 >= 0.60 and f3 >= 0.99
    ok = exact_ok and noisy_ok
    detail = (f"exact: max|beta err|={worst_err:.2e} (<=1e-8), "
              f"max resid var={worst_resid:.2e} (<1e-16); noisy coverage "
              f"1-SE={f1:.1%} (>=60%), 3-SE={f3:.1%} (>=99%) over {total} fits")
    assert _line(2, ok, detail)


def test_criterion_3_garch_recovery():
    hits = 0
    slowest = 0.0
    for seed in SEEDS:
        ps = simulate(GarchSpec(n_steps=100_000, omega=1e-6, alpha=0.10,
                                beta=0.85, seed=seed, substeps=1,
                                extremes="substep", volume_mode="none"))
        r = compute_log_returns(ps).values
        t0 = time.time()
        fit = fit_garch11(r)
        slowest = max(slowest, time.time() - t0)
        if (fit.converged and abs(fit.params.alpha - 0.10) <= 0.03
                and abs(fit.params.beta - 0.85) <= 0.03):
            hits += 1
    ok = hits >= 18 and slowest < 60.0
    detail = (f"alpha,beta within +/-0.03 in {hits}/20 seeds (>=18), "
              f"slowest fit {slowest:.1f}s (< 60s)")
    assert _line(3, ok, detail)


def test_criterion_4_control_matrix(gbm_matrix, garch_matrix, gjr_matrix):
    expected = {
        "gbm": (gbm_matrix, {"F1": "supported", "F2": "not_supported",
                             "F4": "not_supported", "F5": "not_supported",
                             "F7": "not_supported", "F9": "not_supported",
                             "F11": "not_supported"}),
        "garch": (garch_matrix, {"F2": "supported", "F4": "supported",
                                 "F10": "supported", "F11": "supported"}),
        "gjr": (gjr_matrix, {"F2": "supported", "F4": "supported",
                             "F5": "supported", "F9": "supported",
                             "F10": "supported", "F11": "supported"}),
    }
    cells = []
    ok = True
    for model, (rows, want) in expected.items():
        for fact, status in want.items():
            n = sum(row["statuses"][fact] == status for row in rows)
            cells.append(f"{model}/{fact}={n}")
            ok = ok and n >= 18
    assert _line(4, ok, "correct seeds out of 20 (need >=18): " + " ".join(cells))


def test_criterion_5_anderson_darling(gbm_matrix):
    rng = np.random.default_rng(5)
    cv = anderson_darling_normal(rng.standard_normal(1_000_000)).critical_values
    targets = {"10%": 0.656, "5%": 0.787, "1%": 1.092}
    cv_ok = all(abs(cv[k] - v) <= 0.01 for k, v in targets.items())

    non_reject = {2: 0, 16: 0, 64: 0}
    for row in gbm_matrix:
        r = row["returns"]
        for k in non_reject:
            z = _agg(r, k)
            if not anderson_darling_normal(z).reject["5%"]:
                non_reject[k] += 1
    ladder_ok = all(v >= 18 for v in non_reject.values())
    ok = cv_ok and ladder_ok
    detail = ("critical values " +
              ", ".join(f"{k}={cv[k]:.4f} (target {v} +/- 0.01)"
                        for k, v in targets.items()) +
              "; GBM ladder non-rejections " +
              ", ".join(f"k={k}: {v}/20 (>=18)" for k, v in non_reject.items()))
    assert _line(5, ok, detail)


def test_criterion_6_tail_exponent_oracle():
    alphas = []
    for seed in range(50):
        rng = np.random.default_rng(60_000 + seed)
        alphas.append(fit_tail_exponent(rng.standard_t(3, 100_000), "right",
                                        0.05).alpha)
    med = float(np.median(alphas))
    t_ok = 2.5 <= med <= 3.5

    n = 1000
    i = np.arange(1, n)
    x = np.empty(n)
    x[:-1] = ((n - i) / n) ** (-1.0 / 3.0)
    x[-1] = 2.0 * x[-2]
    err = abs(fit_tail_exponent(x, "right", 0.05).alpha - 3.0)
    pareto_ok = err < 1e-9
    ok = t_ok and pareto_ok
    detail = (f"t(3) median alpha={med:.3f} over 50 seeds (in [2.5, 3.5]); "
              f"exact-Pareto alpha error={err:.2e} (< 1e-9)")
    assert _line(6, ok, detail)


def test_criterion_7_zumbach_controls(gbm_matrix, garch_matrix):
    inside_fracs = []
    for row in gbm_matrix:
        c = row["zumbach"]
        inside = (c["value"] >= c["band_low"]) & (c["value"] <= c["band_high"])
        inside_fracs.append(float(np.mean(inside)))
    gbm_frac = float(np.mean(inside_fracs))
    gbm_ok = gbm_frac >= 0.90

    garch_hits = 0
    for row in garch_matrix:
        c = row["zumbach"]
        above = c["value"] > c["band_high"]
        if float(np.mean(above)) >= 0.50 and np.all(c["value"][above] > 0.0):
            garch_hits += 1
    garch_ok = garch_hits >= 18
    ok = gbm_ok and garch_ok
    detail = (f"GBM mean fraction inside null band={gbm_frac:.1%} (>=90%); "
              f"GARCH above-band at >=50% of lags in {garch_hits}/20 seeds (>=18)")
    assert _line(7, ok, detail)


def test_criterion_8_bruteforce_equivalence():
    rng = np.random.default_rng(8)
    x = rng.standard_normal(1000)
    y = rng.standard_normal(1000)
    n = len(x)

    mx = sum(x) / n
    c0 = sum((v - mx) ** 2 for v in x) / (n - 1)
    acf_err = 0.0
    got = acf(x, 20)
    for lag in range(1, 21):
        c = sum((x[t] - mx) * (x[t + lag] - mx) for t in range(n - lag)) / (n - 1)
        acf_err = max(acf_err, abs(got.values[lag - 1] - c / c0))

    def naive_pearson(a, b):
        m = len(a)
        ma, mb = sum(a) / m, sum(b) / m
        sab = sa = sb = 0.0
        for t in range(m):
            sab += (a[t] - ma) * (b[t] - mb)
            sa += (a[t] - ma) ** 2
            sb += (b[t] - mb) ** 2
        return sab / math.sqrt(sa * sb)

    cc = cross_correlation(x, y, 7)
    ccf_err = 0.0
    for i, lag in enumerate(cc.lags):
        if lag >= 0:
            want = naive_pearson(x[: n - lag], y[lag:])
        else:
            want = naive_pearson(x[-lag:], y[: n + lag])
        ccf_err = max(ccf_err, abs(cc.values[i] - want))

    sx, exceed = edf_exceedance(x)
    edf_err = 0.0
    for i in range(n):
        count = sum(1 for v in x if v > sx[i])
        edf_err = max(edf_err, abs(exceed[i] - count / n))

    v = np.abs(x)
    prof = excursion_lengths(v)
    exc_err = 0.0
    for q, mean, cnt in zip(prof.levels, prof.mean_lengths, prof.n_excursions):
        thr = np.quantile(v, q / 100.0)
        runs, cur = [], 0
        for val in v:
            if val > thr:
                cur += 1
            elif cur:
                runs.append(cur)
                cur = 0
        if cur:
            runs.append(cur)
        assert cnt == len(runs)
        if runs:
            exc_err = max(exc_err, abs(mean - sum(runs) / len(runs)))

    worst = max(acf_err, ccf_err, edf_err, exc_err)
    ok = worst <= 1e-12
    detail = (f"max |diff| vs naive oracles: acf={acf_err:.1e}, ccf={ccf_err:.1e}, "
              f"edf={edf_err:.1e}, excursions={exc_err:.1e} (all <= 1e-12)")
    assert _line(8, ok, detail)


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    write_csv(simulate(GarchSpec(n_steps=2000, omega=1e-6, alpha=0.10, beta=0.85,
                                 seed=11)), str(data / "one.csv"))
    write_csv(simulate(GjrSpec(n_steps=2000, omega=1e-6, alpha=0.03, gamma=0.24,
                               beta=0.75, seed=12)), str(data / "two.csv"))
    write_csv(simulate(GbmSpec(n_steps=2000, seed=13)), str(data / "three.csv"))
    cfg = data / "cfg.json"
    cfg.write_text(json.dumps({
        "assets": [{"id": "one", "path": "one.csv"},
                   {"id": "two", "path": "two.csv"},
                   {"id": "three", "path": "three.csv"}],
        "out_dir": "out",
        "seed": 7,
    }))

    def run(out, workers):
        code = cli_main(["analyze", "--config", str(cfg), "--out",
                         str(tmp_path / out), "--workers", str(workers)])
        assert code == 0
        tree = {}
        for dirpath, _, names in os.walk(tmp_path / out):
            for name in names:
                p = os.path.join(dirpath, name)
                with open(p, "rb") as f:
                    tree[os.path.relpath(p, tmp_path / out)] = f.read()
        return tree

    a = run("out_a", 1)
    b = run("out_b", 1)
    c = run("out_c", 8)
    rerun_ok = a == b
    workers_ok = a == c
    ok = rerun_ok and workers_ok
    detail = (f"{len(a)} output files; rerun byte-identical: {rerun_ok}; "
              f"workers 1 vs 8 byte-identical: {workers_ok}")
    assert _line(9, ok, detail)
