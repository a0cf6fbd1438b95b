"""Command-line interface: run one experiment, sweep one key, compare two CSVs."""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .algorithms import StepConditionWarning
from .core import NonFiniteError
from .harness import FIELDS, ConfigError, compare_runs, parse_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fedcef")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a single configured experiment")
    p_run.add_argument("--config", required=True, help="path to an INI config file")
    p_run.add_argument("--out", required=True, help="output CSV path")
    p_run.add_argument("--seed", type=int, default=None, help="override the configured seed")

    p_sweep = sub.add_parser("sweep", help="re-run one config while varying a single key")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--key", required=True, help="dotted key, e.g. compressor.retain or hyper.B")
    p_sweep.add_argument("--values", required=True, help="comma-separated values to substitute")
    p_sweep.add_argument("--out-dir", required=True)

    p_cmp = sub.add_parser("compare", help="summarize two metrics CSVs side by side")
    p_cmp.add_argument("csv_a")
    p_cmp.add_argument("csv_b")
    p_cmp.add_argument("--threshold", type=float, default=None, help="objective threshold for bytes-to-reach")
    return parser


def _cmd_run(args) -> int:
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):  # the CSV is opened only after the whole run
        raise FileNotFoundError(f"--out directory {out_dir!r} does not exist")
    with open(args.config) as fh:
        cfg = parse_config(fh.read(), None if args.seed is None else {"run.seed": str(args.seed)})
    run_experiment(cfg, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    with open(args.config) as fh:
        base_text = fh.read()
    runs = []  # every config is resolved before the first run, so a bad one writes nothing
    values = [raw.strip() for raw in args.values.split(",")]
    for n, raw in enumerate(values):
        if raw in values[:n]:  # its run would overwrite the first one's CSV
            raise ConfigError(f"--values repeats {raw!r}")
        runs.append((raw, parse_config(base_text, {args.key: raw})))
    # the key as the echo spells it (hyper.k -> hyper.K); parse_config has checked it
    section, _, key = args.key.partition(".")
    _, f = FIELDS[section, key.lower()]
    os.makedirs(args.out_dir, exist_ok=True)
    for raw, cfg in runs:
        out = os.path.join(args.out_dir, f"{f.section}.{f.key}={raw}.csv")
        run_experiment(cfg, out)
        print(f"wrote {out}")
    return 0


def _cmd_compare(args) -> int:
    summary = compare_runs(args.csv_a, args.csv_b, args.threshold)
    print(summary.render())
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    show = warnings.showwarning

    def show_step_warning(message, category, *rest):  # one line for the user, not a source location
        if not issubclass(category, StepConditionWarning):
            return show(message, category, *rest)
        print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always", StepConditionWarning, append=True)  # every run warns; a filter already set wins
        warnings.showwarning = show_step_warning
        try:
            if args.command == "run":
                return _cmd_run(args)
            if args.command == "sweep":
                return _cmd_sweep(args)
            return _cmd_compare(args)
        except (ConfigError, MemoryError, NonFiniteError, OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    raise SystemExit(main())
