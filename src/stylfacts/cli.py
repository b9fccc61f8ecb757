"""Command-line front end.

    stylfacts analyze --config cfg.json [--asset ID ...] [--out DIR]
    stylfacts simulate --model gbm --n 1000 --seed 7 [--out FILE]
    stylfacts report --merge DIR

analyze exits 0 only when every selected asset was analyzed; per-asset
failures are recorded in the summary and reported on stderr.  An invalid
config aborts immediately with exit code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .errors import StylfactsError
from .report import load_config, merge_reports, run_analyze
from .series import write_csv
from .simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="stylfacts",
                                description="stylized-fact tests on OHLCV series")
    sub = p.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the fact suite per the config file")
    pa.add_argument("--config", required=True, help="JSON config path")
    pa.add_argument("--asset", action="append", default=None,
                    help="restrict to this asset id (repeatable)")
    pa.add_argument("--out", default=None, help="override the configured output directory")
    pa.add_argument("--workers", type=int, default=None,
                    help="override the configured worker count")

    ps = sub.add_parser("simulate", help="emit a synthetic OHLCV CSV")
    ps.add_argument("--model", required=True, choices=("gbm", "ou", "garch", "gjr"))
    ps.add_argument("--n", type=int, required=True,
                    help="number of model steps (emits n+1 bars)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None, help="output file (default stdout)")
    ps.add_argument("--mu", type=float, default=None, help="gbm log-drift / ou level")
    ps.add_argument("--sigma", type=float, default=None, help="gbm/ou volatility per step")
    ps.add_argument("--p0", type=float, default=None, help="initial price")
    ps.add_argument("--theta", type=float, default=None, help="ou mean-reversion rate")
    ps.add_argument("--x0", type=float, default=None, help="ou initial log price")
    ps.add_argument("--omega", type=float, default=None)
    ps.add_argument("--alpha", type=float, default=None)
    ps.add_argument("--beta", type=float, default=None)
    ps.add_argument("--gamma", type=float, default=None, help="gjr leverage coefficient")
    ps.add_argument("--mean", type=float, default=None, help="garch/gjr per-step mean return")
    ps.add_argument("--innovation", choices=("normal", "student_t"), default=None)
    ps.add_argument("--df", type=float, default=None, help="student_t degrees of freedom")
    ps.add_argument("--burn-in", type=int, default=None)
    ps.add_argument("--substeps", type=int, default=None, help="within-bar resolution")
    ps.add_argument("--extremes", choices=("bridge", "substep"), default=None)
    ps.add_argument("--step-seconds", type=int, default=None)
    ps.add_argument("--t0", type=int, default=None, help="first bar timestamp")
    ps.add_argument("--volume-mode", choices=("proportional", "none"), default=None)

    pr = sub.add_parser("report", help="re-aggregate existing reports")
    pr.add_argument("--merge", required=True, metavar="DIR",
                    help="directory holding asset report JSONs")
    return p


_COMMON_FLAGS = ("seed", "substeps", "extremes", "step_seconds", "t0", "volume_mode")
_GARCH_FLAGS = ("omega", "alpha", "beta", "mean", "innovation", "df", "burn_in", "p0")
# --model: (spec class, the model flags it takes)
_MODELS = {
    "gbm": (GbmSpec, ("mu", "sigma", "p0")),
    "ou": (OuSpec, ("theta", "mu", "sigma", "x0")),
    "garch": (GarchSpec, _GARCH_FLAGS),
    "gjr": (GjrSpec, _GARCH_FLAGS + ("gamma",)),
}


def _spec_from_args(args) -> object:
    cls, own = _MODELS[args.model]
    others = {name for _, names in _MODELS.values() for name in names} - set(own)
    stray = sorted(name for name in others if getattr(args, name) is not None)
    if stray:
        flags = ", ".join("--" + name.replace("_", "-") for name in stray)
        raise ValueError(f"--model {args.model} takes no {flags}")
    kw = {name: getattr(args, name) for name in _COMMON_FLAGS + own
          if getattr(args, name) is not None}
    return cls(n_steps=args.n, **kw)


def _cmd_analyze(args) -> int:
    config = load_config(args.config)
    if args.asset:
        known = {a.asset_id for a in config.assets}
        missing = [a for a in args.asset if a not in known]
        if missing:
            raise ValueError(f"asset ids not in config: {missing}")
        config = dataclasses.replace(
            config, assets=tuple(a for a in config.assets if a.asset_id in set(args.asset)))
    if args.out is not None:
        config = dataclasses.replace(config, out_dir=args.out)
    if args.workers is not None:
        config = dataclasses.replace(config, workers=args.workers)
    result = run_analyze(config)
    for o in result.outcomes:
        if o.error is not None:
            print(f"{o.asset_id}: {o.error}", file=sys.stderr)
    print(f"wrote {result.summary_path}")
    return 0 if result.ok else 1


def _cmd_simulate(args) -> int:
    spec = _spec_from_args(args)
    series = simulate(spec)
    if args.out is None:
        write_csv(series, sys.stdout)
    else:
        write_csv(series, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    path = merge_reports(args.merge)
    print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {"analyze": _cmd_analyze, "simulate": _cmd_simulate,
               "report": _cmd_report}[args.command]
    try:
        return handler(args)
    except (StylfactsError, ValueError, OSError, TypeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
