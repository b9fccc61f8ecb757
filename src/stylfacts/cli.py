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
from typing import Optional, get_type_hints

from .errors import StylfactsError
from .series import write_csv
from .simulate import GarchSpec, GbmSpec, GjrSpec, OuSpec, simulate

# --model: the spec class that declares the model; its fields are the flags
_MODELS = {"gbm": GbmSpec, "ou": OuSpec, "garch": GarchSpec, "gjr": GjrSpec}


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
    ps.add_argument("--model", required=True, choices=tuple(_MODELS))
    ps.add_argument("--out", default=None, help="output file (default stdout)")
    for name, (kind, required, models) in _spec_fields().items():
        ps.add_argument(_flag(name), dest=name, type=kind, required=required,
                        help="models: " + ", ".join(models))

    pr = sub.add_parser("report", help="re-aggregate existing reports")
    pr.add_argument("--merge", required=True, metavar="DIR",
                    help="directory holding asset report JSONs")
    return p


def _flag(name: str) -> str:
    return "--n" if name == "n_steps" else "--" + name.replace("_", "-")


def _spec_fields() -> dict:
    """Each spec field of every model, in declaration order: its flag type
    (Optional[float] reads as a float), whether it lacks a default, and the
    models that take it."""
    out = {}
    for model, cls in _MODELS.items():
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            kind = {Optional[float]: float}.get(hints[f.name], hints[f.name])
            required = f.default is dataclasses.MISSING
            out.setdefault(f.name, (kind, required, []))[2].append(model)
    return out


def _spec_from_args(args) -> object:
    cls = _MODELS[args.model]
    given = {name for name in _spec_fields() if getattr(args, name) is not None}
    stray = sorted(given - {f.name for f in dataclasses.fields(cls)})
    if stray:
        flags = ", ".join(map(_flag, stray))
        raise ValueError(f"--model {args.model} takes no {flags}")
    return cls(**{name: getattr(args, name) for name in given})


def _cmd_analyze(args) -> int:
    from .report import load_config, run_analyze

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
    from .report import merge_reports

    print(f"wrote {merge_reports(args.merge)}")
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
