"""Spans and counters around the package's public functions, from outside.

`Tracer.install` replaces each function named in layers.json's "wrapped"
table with a recording wrapper in every loaded `stylfacts` module that holds
it, so calls through `from .x import f` names and through `module.f`
attributes are both seen; `uninstall` puts the originals back.  The package
itself is not edited.

A span records name, start, end, parent span, asset and thread, plus the
counters its hook reads from the call's arguments and result.  Spans stay in
memory until the run writes them out as JSONL.  `layer_metrics` turns one
pass's spans into the per-layer metrics; layers.json says how each is
derived.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict

FACT_SPANS = tuple(f"facts.F{i}" for i in range(1, 12))
ROLLING_SPANS = ("kernels.rolling_var", "kernels.rolling_mean")
# computed traffic of one numpy resample: an int64 index and two float64 gathers
GATHER_BYTES_PER_ELEMENT = 24


def _csv_format(path) -> str:
    """'epoch' or 'iso', from the first data row's timestamp field."""
    with open(path, "r", newline="") as f:
        f.readline()
        first = f.readline().split(",", 1)[0].strip()
    return "epoch" if first.lstrip("-").isdigit() else "iso"


def _read_csv_attrs(a, result):
    src = a["path_or_file"]
    fmt = _csv_format(src) if isinstance(src, (str, os.PathLike)) else "stream"
    return {"rows": len(result), "format": fmt}


def _write_csv_attrs(a, result):
    dst = a["path_or_file"]
    return {"bytes": os.path.getsize(dst) if isinstance(dst, (str, os.PathLike)) else 0}


def _fact_attrs(a, result):
    return {"status": result.status.value}


# span name -> hook(bound arguments, result) -> counters stored on the span
_HOOKS = {
    "report.run_analyze": lambda a, r: {"workers": a["config"].workers},
    "series.read_csv": _read_csv_attrs,
    "series.write_csv": _write_csv_attrs,
    "simulate.simulate": lambda a, r: {"bars": len(r)},
    "kernels.zumbach_boot": lambda a, r: {"resamples": int(a["starts"].shape[0]),
                                          "n": int(a["a"].shape[0])},
    "fitting.fit_garch11": lambda a, r: {"nfev": int(r.n_evaluations),
                                         "converged": bool(r.converged)},
    "stats.adf_test": lambda a, r: {"accepted": bool(r.reject["5%"])},
    **{name: _fact_attrs for name in FACT_SPANS},
}


class Tracer:
    def __init__(self, wrapped: dict):
        self.wrapped = wrapped          # span name -> "module:function"
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list = []
        self._main_thread = threading.get_ident()
        self._patches: list = []        # (module, attribute, original)
        self.t0 = time.perf_counter()

    def _stack(self) -> list:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _wrap(self, name: str, fn):
        tracer = self
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None or name == "report._analyze_one" else None

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            # a pool thread's first span hangs off the span the main thread is in
            parent = stack[-1] if stack else (tracer._main_stack[-1] if tracer._main_stack else None)
            local = tracer._local
            prev_asset = getattr(local, "asset", None)
            bound = sig.bind(*args, **kwargs).arguments if sig is not None else None
            if name == "report._analyze_one":
                local.asset = bound["asset"].asset_id
            span = {"id": next(tracer._ids), "name": name, "parent": parent,
                    "asset": getattr(local, "asset", None), "thread": threading.get_ident()}
            stack.append(span["id"])
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                end = time.perf_counter()
                stack.pop()
                local.asset = prev_asset
                span["start"] = start - tracer.t0
                span["end"] = end - tracer.t0
                span["error"] = not ok
                tracer.spans.append(span)
            if hook is not None:
                span.update(hook(bound, result))
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self) -> None:
        mods = [m for k, m in list(sys.modules.items())
                if m is not None and (k == "stylfacts" or k.startswith("stylfacts."))]
        for name, target in self.wrapped.items():
            modname, fname = target.split(":")
            orig = getattr(importlib.import_module(modname), fname)
            wrapper = self._wrap(name, orig)
            for m in mods:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patches.append((m, attr, orig))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            m, attr, orig = self._patches.pop()
            setattr(m, attr, orig)


def _dur(s) -> float:
    return s["end"] - s["start"]


def _self_times(spans: list, by_id: dict) -> dict:
    """span id -> duration minus its direct children on the same thread."""
    own = {s["id"]: _dur(s) for s in spans}
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None and p["thread"] == s["thread"]:
            own[p["id"]] -= _dur(s)
    return own


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one pass; see layers.json for each definition."""
    by_id = {s["id"]: s for s in spans}
    own = _self_times(spans, by_id)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def outermost(name):
        out = []
        for s in by_name[name]:
            p = by_id.get(s["parent"])
            while p is not None and p["name"] != name:
                p = by_id.get(p["parent"])
            if p is None:
                out.append(s)
        return out

    def busy(name, pred=lambda s: True):
        return sum(_dur(s) for s in outermost(name) if pred(s))

    def self_s(name):
        return sum(own[s["id"]] for s in by_name[name])

    def count(name):
        return len(by_name[name])

    def total(name, key):
        return sum(s.get(key, 0) for s in by_name[name])

    compute = write = wait = pool_busy = pool_cap = 0.0
    for ra in by_name["report.run_analyze"]:
        assets = [s for s in by_name["report._analyze_one"] if s["parent"] == ra["id"]]
        end_compute = max((s["end"] for s in assets), default=ra["start"])
        compute += end_compute - ra["start"]
        write += ra["end"] - end_compute
        wait += sum(s["start"] - ra["start"] for s in assets)
        pool_busy += sum(_dur(s) for s in assets)
        pool_cap += ra.get("workers", 1) * (end_compute - ra["start"])

    adf_calls = count("stats.adf_test")
    zb = by_name["kernels.zumbach_boot"]
    return {
        "report.compute_phase_s": compute,
        "report.write_phase_s": write,
        "report.pool_busy_frac": pool_busy / pool_cap if pool_cap > 0 else 0.0,
        "report.asset_wait_s": wait,
        "report.write_curve_csv.busy_s": busy("report.write_curve_csv"),
        "report.write_curve_csv.files": count("report.write_curve_csv"),
        "report.write_json.busy_s": busy("report.write_json"),
        "series.read_csv.epoch_busy_s": busy("series.read_csv", lambda s: s.get("format") == "epoch"),
        "series.read_csv.iso_busy_s": busy("series.read_csv", lambda s: s.get("format") == "iso"),
        "series.read_csv.rows": total("series.read_csv", "rows"),
        "series.validate_and_gapfill.busy_s": busy("series.validate_and_gapfill"),
        "series.write_csv.busy_s": busy("series.write_csv"),
        "series.write_csv.mb": total("series.write_csv", "bytes") / 1e6,
        "simulate.simulate.busy_s": busy("simulate.simulate"),
        "simulate.simulate.bars": total("simulate.simulate", "bars"),
        "kernels.garch_sim.busy_s": busy("kernels.garch_sim"),
        "kernels.ou_path.busy_s": busy("kernels.ou_path"),
        "kernels.zumbach_boot.busy_s": busy("kernels.zumbach_boot"),
        "kernels.zumbach_boot.resamples": total("kernels.zumbach_boot", "resamples"),
        "kernels.zumbach_boot.gather_mb": sum(s.get("resamples", 0) * s.get("n", 0) for s in zb)
        * GATHER_BYTES_PER_ELEMENT / 1e6,
        "kernels.garch_filter.busy_s": busy("kernels.garch_filter"),
        "kernels.garch_filter.calls": count("kernels.garch_filter"),
        "kernels.rolling.busy_s": sum(busy(n) for n in ROLLING_SPANS),
        "fitting.fit_garch11.self_s": self_s("fitting.fit_garch11"),
        "fitting.fit_garch11.calls": count("fitting.fit_garch11"),
        "fitting.fit_garch11.nfev": total("fitting.fit_garch11", "nfev"),
        "fitting.fit_garch11.nonconverged": sum(1 for s in by_name["fitting.fit_garch11"]
                                                if not s.get("converged", True)),
        "fitting.fit_tail_exponent.busy_s": busy("fitting.fit_tail_exponent"),
        "fitting.fit_ou.busy_s": busy("fitting.fit_ou"),
        "stats.adf_test.busy_s": busy("stats.adf_test"),
        "stats.adf_test.calls": adf_calls,
        "stats.adf_test.accept_ratio": (sum(1 for s in by_name["stats.adf_test"] if s.get("accepted"))
                                        / adf_calls if adf_calls else 0.0),
        "stats.acf.busy_s": busy("stats.acf"),
        "volatility.rolling_volatility.busy_s": busy("volatility.rolling_volatility"),
        "volatility.rolling_volatility.calls": count("volatility.rolling_volatility"),
        **{f"{name}.self_s": self_s(name) for name in FACT_SPANS},
        "facts.inconclusive": sum(1 for name in FACT_SPANS for s in by_name[name]
                                  if s["error"] or s.get("status") == "inconclusive"),
    }


def self_shares(spans: list) -> dict:
    """Each span name's share of all same-thread self time, largest first.

    report.run_analyze is left out: during the compute phase its thread
    only waits for the pool."""
    own = _self_times(spans, {s["id"]: s for s in spans})
    per_name = defaultdict(float)
    for s in spans:
        if s["name"] != "report.run_analyze":
            per_name[s["name"]] += own[s["id"]]
    tot = sum(per_name.values()) or 1.0
    return dict(sorted(((k, v / tot) for k, v in per_name.items()), key=lambda kv: -kv[1]))
