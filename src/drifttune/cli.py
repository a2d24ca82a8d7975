"""Command line entry point.

Verbs: ``run`` executes one experiment config, ``suite`` a directory of
configs, ``report`` summarizes previously stored results, and
``validate-theory`` runs the closed-form checks and prints their JSON
report. Exit codes: 0 success, 1 configuration error, 2 runtime error
(including a failed theory validation).

The flags of ``run`` and ``suite`` other than ``--parallel`` each replace
one field of every loaded config (``--out``, ``--seeds``, ``--method``);
a flag left out keeps the config's value. The harness then reads only
the configs.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .errors import ConfigError, DriftTuneError
from .harness import (METHODS, load_config, load_config_dir, render_table, run_experiment,
                      run_suite, summarize, summarize_stored, write_suite_summary)
from .theory import validate_theory


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="drifttune",
                                     description="Prequential drift experiments with fixed or self-tuned alarm thresholds.")
    sub = parser.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="run one experiment config")
    run.add_argument("--config", required=True, help="YAML experiment config")
    _add_run_flags(run)

    suite = sub.add_parser("suite", help="run a directory of experiment configs")
    suite.add_argument("--config", required=True, help="directory of YAML configs (or one file)")
    _add_run_flags(suite)

    report = sub.add_parser("report", help="summarize stored results")
    report.add_argument("--out", default="results", help="results directory to summarize")

    theory = sub.add_parser("validate-theory", help="run the closed-form checks and print a JSON report")
    theory.add_argument("--out", default=None, help="also write theory_report.json here")
    return parser


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default=None, help="output directory (default: the config's)")
    sub.add_argument("--seeds", type=int, default=None, help="run seeds 0..N-1 (default: the config's)")
    sub.add_argument("--parallel", type=int, default=1,
                     help="worker processes over (stream, seed) passes and their parts")
    sub.add_argument("--method", choices=METHODS + ("both",), default=None,
                     help="methods to run (default: the config's)")


def _override(config, args):
    """The config with each run flag that was given in place of its field."""
    given = {"out": args.out, "seeds": args.seeds, "method": args.method}
    return dataclasses.replace(config, **{k: v for k, v in given.items() if v is not None})


def _cmd_run(args) -> int:
    config = _override(load_config(args.config), args)
    results = run_experiment(config, parallel=args.parallel)
    print(render_table(summarize(list(results.values()))), end="")
    return 0


def _cmd_suite(args) -> int:
    configs = [_override(c, args) for c in load_config_dir(args.config)]
    _, report = run_suite(configs, parallel=args.parallel)
    print(render_table(report), end="")
    return 0


def _cmd_report(args) -> int:
    report = summarize_stored(args.out)
    write_suite_summary(report, args.out)
    print(render_table(report), end="")
    return 0


def _cmd_validate_theory(args) -> int:
    report = validate_theory()
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out is not None:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "theory_report.json").write_text(text)
    print(text, end="")
    return 0 if report["pass"] else 2


_COMMANDS = {
    "run": _cmd_run,
    "suite": _cmd_suite,
    "report": _cmd_report,
    "validate-theory": _cmd_validate_theory,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that is a configuration problem
        return 0 if exc.code in (0, None) else 1
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DriftTuneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
