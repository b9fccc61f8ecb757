#!/usr/bin/env python3
"""Layered benchmark of the stylfacts command line.

    python3 perfbench/run.py --workload long4 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ./src and
nothing is installed.  Scratch files go to ./.perfbench.

With --trace 0 the run makes the workload's inputs from --seed (set-up,
timed several times in gen.py children), then makes closed-loop passes until
--seconds have passed: each pass runs the workload's `stylfacts` commands as
child processes, one after the other, and is timed from outside.  Every
pass's outputs are checked.  The last stdout line is one JSON object with
the end-to-end metrics of BENCHMARK.json, medians over the passes.  This
process imports neither numpy nor the package before the timed passes end:
a spawned child's peak RSS starts at its parent's, so a large parent would
hide the program's own peak.

With --trace 1 the same commands run in this process through cli.main,
alternating an untraced pass with a pass traced by tracing.Tracer, and the
last line carries the per-layer metrics of layers.json.  The spans go to
.perfbench/results/<workload>-seed<seed>-spans.jsonl.

The workloads and why each was chosen are in BENCHMARK.json.  The verdict
matrix of each analyze workload at the default seed is pinned in
expected.json; on another seed it is reported, and only errors and failed
checks count as failures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
DEFAULT_SEED = 1
# Set-up repeats for SETUP_SLICE_S before the first pass and after every
# pass, at least SETUP_REPS times in all: the machine's speed swings for
# seconds at a time, and reps spread over the run give a steadier median.
SETUP_REPS = 5
SETUP_SLICE_S = 0.5
IMPORT_REPS = 3
# this process's own peak RSS must stay below this share of every child's
HARNESS_RSS_SHARE = 0.5
# multiplies every bar count; test_smoke.py lowers it in a copy of perfbench/
SCALE = 1.0
MODELS = ("gbm", "ou", "garch", "gjr")   # the models gen.model_returns knows
ALL_FACTS = tuple(f"F{i}" for i in range(1, 12))
# screen16 screens without the bootstrap (F11) and the matched simulations (F3)
SCREEN_FACTS = tuple(f for f in ALL_FACTS if f not in ("F3", "F11"))
STATUSES = ("supported", "not_supported", "inconclusive")


@dataclass(frozen=True)
class Sim:
    model: str
    n_steps: int
    seed: int
    spec_kw: tuple = ()    # (name, value) beyond the defaults, passed as --name value


@dataclass(frozen=True)
class Workload:
    assets: tuple = ()     # gen.AssetPlan fields as dicts, for analyze workloads
    facts: tuple = ()
    workers: int = 1
    sims: tuple = ()       # Sim, for the simulate workload


def make_workload(name: str, seed: int) -> Workload:
    def n(base):
        return max(int(base * SCALE), 200)

    def plan(asset_id, model, n_steps, iso=False, volume=True):
        return {"asset_id": asset_id, "model": model, "n_steps": n_steps, "iso": iso,
                "volume": volume}

    if name == "long4":
        return Workload(tuple(plan(m, m, n(100_000)) for m in MODELS), ALL_FACTS, workers=2)
    if name == "screen16":
        plans = []
        for i in range(16):
            m = MODELS[i % 4]
            # every third file ISO with gaps; every fourth without volume,
            # on the diagonal so each model has one such file
            plans.append(plan(f"a{i:02d}_{m}", m, n(10_000), iso=i % 3 == 2,
                              volume=i % 4 != (i // 4) % 4))
        return Workload(tuple(plans), SCREEN_FACTS, workers=1)
    if name == "simulate4":
        steps = n(100_000)
        return Workload(sims=(
            Sim("gbm", steps, 4 * seed),
            Sim("ou", steps, 4 * seed + 1),
            Sim("garch", steps, 4 * seed + 2, (("innovation", "student_t"), ("df", 5.0))),
            Sim("gjr", steps, 4 * seed + 3),
        ))
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Set-up: inputs and config, made without any program code
# ---------------------------------------------------------------------------

def setup_slice(wl: Workload, seed: int, dest: Path) -> tuple:
    """(rep times, written files) of set-up repeated in a gen.py child for
    SETUP_SLICE_S; the reps are timed inside the child."""
    job = {"dest": str(dest), "seed": seed, "plans": list(wl.assets), "facts": list(wl.facts),
           "workers": wl.workers, "slice_s": SETUP_SLICE_S}
    r = subprocess.run([sys.executable, str(BENCH / "gen.py"), json.dumps(job)],
                       capture_output=True, text=True, stdin=subprocess.DEVNULL)
    if r.returncode != 0:
        raise SystemExit(f"set-up failed:\n{r.stderr}")
    out = json.loads(r.stdout.strip().splitlines()[-1])
    return out["times"], tuple(SimpleNamespace(**f) for f in out["files"])


def commands(wl: Workload, inputs: Path, out: Path) -> list:
    """argv tails of `stylfacts` for one pass."""
    if wl.assets:
        return [["analyze", "--config", str(inputs / "config.json"), "--out", str(out),
                 "--workers", str(wl.workers)]]
    return [["simulate", "--model", s.model, "--n", str(s.n_steps), "--seed", str(s.seed),
             *(x for k, v in s.spec_kw for x in (f"--{k}", str(v))),
             "--out", str(out / f"{s.model}.csv")] for s in wl.sims]


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def tree_digests(root: Path) -> dict:
    out = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            p = Path(dirpath, name)
            with open(p, "rb") as f:
                out[p.relative_to(root).as_posix()] = hashlib.file_digest(f, "sha256").hexdigest()
    return out


def tree_bytes(root: Path) -> int:
    return sum(Path(d, f).stat().st_size for d, _, fs in os.walk(root) for f in fs)


def _asset_files(digests: dict, asset_id: str) -> dict:
    return {k: v for k, v in digests.items()
            if k == f"{asset_id}.json" or k.startswith(f"{asset_id}/")}


def check_analyze(wl: Workload, files: tuple, out: Path, first: dict, expected) -> tuple:
    """Per-asset problems of one analyze pass, and its verdict matrix."""
    problems = {}
    matrix = {}
    digests = tree_digests(out) if out.is_dir() else {}
    summary = {}
    try:
        lines = (out / "summary.csv").read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            summary[cells[0]] = dict(zip(header, cells))
    except (OSError, IndexError) as e:
        problems["*"] = f"summary.csv unreadable: {e}"
    for f in files:
        p = []
        row = summary.get(f.asset_id)
        if row is None:
            p.append("no summary row")
        elif row.get("error"):
            p.append(f"error: {row['error']}")
        else:
            statuses = {k: row.get(k) for k in ALL_FACTS}
            matrix[f.asset_id] = {k: statuses[k] for k in wl.facts}
            for k in ALL_FACTS:
                want = STATUSES if k in wl.facts else ("skipped",)
                if statuses[k] not in want:
                    p.append(f"{k} status {statuses[k]!r}")
            p += _check_report(f, out, statuses)
            if expected is not None and matrix[f.asset_id] != expected.get(f.asset_id):
                p.append(f"verdicts {matrix[f.asset_id]} differ from expected "
                         f"{expected.get(f.asset_id)}")
        if first is not None and (_asset_files(digests, f.asset_id)
                                  != _asset_files(first["digests"], f.asset_id)
                                  or summary.get(f.asset_id) != first["summary"].get(f.asset_id)):
            p.append("output differs from the run's first pass")
        if p:
            problems[f.asset_id] = "; ".join(p)
    return problems, matrix, {"digests": digests, "summary": summary}


def _check_report(f, out: Path, statuses: dict) -> list:
    try:
        rep = json.loads((out / f"{f.asset_id}.json").read_text())
    except (OSError, ValueError) as e:
        return [f"report unreadable: {e}"]
    p = []
    ds = rep.get("data_summary", {})
    if ds.get("n_bars") != f.n_bars:
        p.append(f"n_bars {ds.get('n_bars')} != {f.n_bars} rows written")
    if ds.get("gaps", {}).get("n_missing") != f.n_dropped:
        p.append(f"n_missing {ds.get('gaps', {}).get('n_missing')} != {f.n_dropped} dropped")
    if ds.get("volume_present_fraction") != (1.0 if f.volume else 0.0):
        p.append(f"volume_present_fraction {ds.get('volume_present_fraction')}")
    for k in ALL_FACTS:
        fact = rep.get("facts", {}).get(k, {})
        if fact.get("status") != statuses[k]:
            p.append(f"{k}: report says {fact.get('status')!r}, summary {statuses[k]!r}")
        for rel in fact.get("curves", {}).values():
            if not (out / rel).is_file():
                p.append(f"missing curve {rel}")
    if not (out / f.asset_id / "volatility.csv").is_file():
        p.append("missing volatility.csv")
    return p


def check_simulate(wl: Workload, out: Path, first: dict) -> tuple:
    problems = {}
    digests = tree_digests(out) if out.is_dir() else {}
    for s in wl.sims:
        name = f"{s.model}.csv"
        if name not in digests:
            problems[s.model] = "file not written"
        elif first is not None and digests[name] != first["digests"].get(name):
            problems[s.model] = "output differs from the run's first pass"
    return problems, {}, {"digests": digests}


def check_readback(wl: Workload, out: Path) -> dict:
    """read_csv of each written file must equal simulate(spec) bit for bit."""
    from stylfacts import GarchSpec, GbmSpec, GjrSpec, OuSpec, read_csv, simulate

    spec_cls = {"gbm": GbmSpec, "ou": OuSpec, "garch": GarchSpec, "gjr": GjrSpec}
    problems = {}
    for s in wl.sims:
        path = out / f"{s.model}.csv"
        if not path.is_file():
            continue
        want = simulate(spec_cls[s.model](n_steps=s.n_steps, seed=s.seed, **dict(s.spec_kw)))
        got = read_csv(str(path))
        for col in ("timestamps", "open", "high", "low", "close", "volume"):
            a, b = getattr(got, col), getattr(want, col)
            if a.dtype != b.dtype or a.tobytes() != b.tobytes():
                problems[s.model] = f"read_csv column {col} differs from simulate(spec)"
                break
        else:
            if len(got) != s.n_steps + 1:
                problems[s.model] = f"{len(got)} bars for n={s.n_steps}"
    return problems


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------

def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def machine(child: dict) -> dict:
    quota = _read("/sys/fs/cgroup/cpu.max")
    if quota is None:
        q, per = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"), _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        quota = f"{q} {per}" if q is not None else None
    caches = {}
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, typ, size = (_read(idx / k) for k in ("level", "type", "size"))
        if level in ("2", "3") and typ == "Unified":
            caches[f"L{level}"] = size
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cgroup_cpu_quota": quota, "caches": caches,
            "python": platform.python_version(), **child}


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env.pop("STYLFACTS_SEED", None)   # would override the config's seed
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(WORK / "tmp")
    return env


def run_child(argv: list, log) -> tuple:
    """(exit code, wall s, user+sys cpu s, peak rss MB) of one child process."""
    t0 = time.perf_counter()
    p = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=log, stderr=log,
                         env=child_env(), cwd=ROOT)
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss * 1024 / 1e6


PROBE = ("import json, numpy, scipy, stylfacts.cli, stylfacts.kernels as k; "
         "print(json.dumps({'numpy': numpy.__version__, 'scipy': scipy.__version__, "
         "'use_numba': bool(k.USE_NUMBA)}))")


def probe(log_path: Path) -> dict:
    """Imports the package once in a child (this also fills the bytecode
    cache, which users do not pay on every call) and reports its versions."""
    r = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                       env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL)
    log_path.write_text(r.stdout + r.stderr)
    if r.returncode != 0:
        raise SystemExit(f"cannot import stylfacts from {SRC}:\n{r.stderr}")
    return json.loads(r.stdout.strip().splitlines()[-1])


class Checker:
    """Checks each pass against the run's first pass and counts failures:
    one per asset (analyze) or file (simulate) with a problem.  A failed
    analyze command fails every asset; a failed simulate command its file."""

    def __init__(self, wl: Workload, files: tuple, expected):
        self.wl, self.files, self.expected = wl, files, expected
        self.units = len(wl.assets) or len(wl.sims)
        self.first = self.first_dir = None
        self.first_problems = {}
        self.matrix = {}
        self.attempted = 0
        self.failed = 0

    def __call__(self, out: Path, codes: list) -> dict:
        if self.wl.assets:
            problems, matrix, digests = check_analyze(self.wl, self.files, out, self.first,
                                                      self.expected)
        else:
            problems, matrix, digests = check_simulate(self.wl, out, self.first)
        for name, rc in zip([s.model for s in self.wl.sims] or ["*"], codes):
            if rc != 0:
                problems.setdefault(name, f"exit code {rc}")
        if self.first is None:
            self.first, self.matrix = digests, matrix
            self.first_dir, self.first_problems = out, problems
        else:
            shutil.rmtree(out)
        self.attempted += self.units
        self.failed += self.units if "*" in problems else len(problems)
        self._report(problems)
        return problems

    def finish(self) -> None:
        """The read-back check of simulate outputs, run after the timed
        passes: it loads the package into this process, and a larger parent
        would show in the children's peak RSS."""
        if self.wl.sims:
            extra = {k: v for k, v in check_readback(self.wl, self.first_dir).items()
                     if k not in self.first_problems}
            self.failed += len(extra)
            self._report(extra)
        shutil.rmtree(self.first_dir)

    @staticmethod
    def _report(problems: dict) -> None:
        for unit, why in problems.items():
            print(f"FAILED {unit}: {why}", file=sys.stderr)


def untraced(wl, seconds, inputs, run_dir, check, log, between) -> list:
    """Closed loop: each pass starts its commands one after the other, each
    after the previous child exited, until the passes add up to `seconds`.
    `between` runs after every pass."""
    passes = []
    while not passes or sum(p["wall_s"] for p in passes) < seconds:
        out = run_dir / f"pass{len(passes)}"
        out.mkdir()
        rec = {"loadavg": os.getloadavg(), "wall_s": 0.0, "cpu_s": 0.0, "peak_rss_mb": 0.0,
               "exit": []}
        for argv in commands(wl, inputs, out):
            rc, wall, cpu, rss = run_child([sys.executable, "-m", "stylfacts", *argv], log)
            rec["exit"].append(rc)
            rec["wall_s"] += wall
            rec["cpu_s"] += cpu
            rec["peak_rss_mb"] = max(rec["peak_rss_mb"], rss)
        rec["output_bytes"] = tree_bytes(out)
        rec["problems"] = check(out, rec["exit"])
        passes.append(rec)
        print(f"pass {len(passes) - 1}: wall {rec['wall_s']:.3f} s, cpu {rec['cpu_s']:.3f} s, "
              f"rss {rec['peak_rss_mb']:.1f} MB, out {rec['output_bytes']} B, "
              f"load {rec['loadavg'][0]:.2f}, exit {rec['exit']}", flush=True)
        between()
    return passes


def in_process(cli, argvs, log) -> tuple:
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        codes = [cli.main(argv) for argv in argvs]
    return codes, time.perf_counter() - t0


def traced(wl, seconds, inputs, run_dir, check, log, wrapped, spans_out) -> list:
    """Pairs of in-process passes, untraced then traced, until `seconds`."""
    from stylfacts import cli

    passes = []
    while not passes or sum(p["untraced_wall_s"] + p["traced_wall_s"] for p in passes) < seconds:
        k = len(passes)
        rec = {"loadavg": os.getloadavg()}
        out = run_dir / f"pass{k}-untraced"
        out.mkdir()
        codes, rec["untraced_wall_s"] = in_process(cli, commands(wl, inputs, out), log)
        rec["untraced_problems"] = check(out, codes)

        out = run_dir / f"pass{k}-traced"
        out.mkdir()
        tracer = tracing.Tracer(wrapped)
        tracer.install()
        try:
            codes, rec["traced_wall_s"] = in_process(cli, commands(wl, inputs, out), log)
        finally:
            tracer.uninstall()
        rec["traced_problems"] = check(out, codes)

        rec["layers"] = tracing.layer_metrics(tracer.spans)
        rec["layers"]["trace.overhead_frac"] = rec["traced_wall_s"] / rec["untraced_wall_s"] - 1
        rec["self_shares"] = tracing.self_shares(tracer.spans)
        for s in tracer.spans:
            spans_out.write(json.dumps({"pass": k, **s}) + "\n")
        passes.append(rec)
        top = ", ".join(f"{n} {v:.1%}" for n, v in list(rec["self_shares"].items())[:5])
        print(f"pass {k}: untraced {rec['untraced_wall_s']:.3f} s, traced "
              f"{rec['traced_wall_s']:.3f} s, {len(tracer.spans)} spans; largest self-time "
              f"shares: {top}", flush=True)
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("long4", "screen16", "simulate4"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "stylfacts" / "cli.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be >= 0", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = json.loads((BENCH / "layers.json").read_text())
    pinned = json.loads((BENCH / "expected.json").read_text())
    expected = None
    if args.seed == pinned["seed"] and SCALE == pinned["scale"]:
        expected = pinned["verdicts"].get(args.workload)

    wl = make_workload(args.workload, args.seed)
    run_dir = WORK / f"run-{args.workload}"
    results = WORK / "results"
    for d in (run_dir, WORK / "tmp"):
        if d.exists():
            shutil.rmtree(d)
    for d in (run_dir, WORK / "tmp", results):
        d.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_path = results / f"{tag}.log"
    inputs = run_dir / "inputs"

    setup_times = []

    def timed_setup():
        times, files = setup_slice(wl, args.seed, inputs)
        setup_times.extend(times)
        return files

    files = timed_setup()
    mach = machine(probe(log_path))
    print("machine: " + json.dumps(mach), flush=True)

    check = Checker(wl, files, expected)
    imports = []
    harness_rss_mb = None
    with open(log_path, "a") as log:
        if args.trace == 0:
            passes = untraced(wl, args.seconds, inputs, run_dir, check, log, timed_setup)
            while len(setup_times) < SETUP_REPS:
                timed_setup()
            harness_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
            if "numpy" in sys.modules or harness_rss_mb > HARNESS_RSS_SHARE * min(
                    p["peak_rss_mb"] for p in passes):
                raise SystemExit(f"the benchmark process peaked at {harness_rss_mb:.1f} MB "
                                 "(or loaded numpy) while it ran the passes; the children's "
                                 "peak RSS would include it")
        else:
            for _ in range(IMPORT_REPS):
                imports.append(run_child([sys.executable, "-c", "import stylfacts.cli"], log)[1])
            with open(results / f"{args.workload}-seed{args.seed}-spans.jsonl", "w") as spans_out:
                passes = traced(wl, args.seconds, inputs, run_dir, check, log,
                                layers["wrapped"], spans_out)
    check.finish()
    if wl.assets:
        print(f"verdicts ({'enforced' if expected is not None else 'reported'}): "
              + json.dumps(check.matrix), flush=True)

    if args.trace == 0:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median([p["wall_s"] for p in passes]),
            "cpu_s": statistics.median([p["cpu_s"] for p in passes]),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
            "output_mb": statistics.median([p["output_bytes"] for p in passes]) / 1e6,
        }
        declared = bench["end_to_end"]
    else:
        values = {name: statistics.median([p["layers"][name] for p in passes])
                  for name in layers["metrics"] if name != "cli.import_s"}
        values["cli.import_s"] = statistics.median(imports)
        declared = bench["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "scale": SCALE, "machine": mach,
              "inputs": {f.asset_id: f.sha256 for f in files},
              "setup_s": {"reps": len(setup_times), "min": min(setup_times),
                          "median": statistics.median(setup_times), "max": max(setup_times)},
              "import_s": imports, "harness_rss_mb": harness_rss_mb, "passes": passes,
              "verdicts": check.matrix, "verdicts_enforced": expected is not None,
              "attempted": check.attempted, "failed": check.failed, "metrics": metrics}
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": check.failed == 0, "attempted": check.attempted,
                      "failed": check.failed, "metrics": metrics}), flush=True)
    return 0 if check.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
