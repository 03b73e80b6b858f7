"""Command-line front end.

Subcommands: solve, compare, sweep, qsvt-check.  --config names the YAML
file; --out and --seed override the corresponding file fields.  Exit codes:
0 success (and --help), 1 usage or config error (unknown subcommand or
flag, missing --config, invalid field), 2 solver failure, 3 partial sweep
(some cells failed; without the reference cell no envelope is fitted).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config_file, validate_config
from .experiments import run_compare, run_qsvt_check, run_solve, run_sweep

_COMMANDS = {
    "solve": run_solve,
    "compare": run_compare,
    "sweep": run_sweep,
    "qsvt-check": run_qsvt_check,
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; here 2 means solver failure."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qbsqp",
        description="Barrier SQP solver with exact, noisy, or simulated-quantum "
                    "Schur-complement steps",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="YAML configuration file")
    parser.add_argument("--out", help="output directory (overrides output.dir)")
    parser.add_argument("--seed", type=int, help="seed override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        data = load_config_file(args.config)
        if args.seed is not None:
            data["seed"] = args.seed  # validated like the file's field
        cfg = validate_config(data)
        if args.out is not None:
            cfg.output_dir = args.out
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        code, result = _COMMANDS[args.command](cfg)
    except ValueError as exc:  # a ConfigError too
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # solver failures: singularity, budget, spectrum
        print(f"solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    summary = result.get("summary", {})
    for key, value in summary.items():
        if key not in ("failures", "fit_skipped"):
            print(f"{key}: {value}")
    if code == 2:
        print("solver failure: run did not reach a successful termination",
              file=sys.stderr)
    if code == 3:
        print(f"partial sweep: {len(summary.get('failures', []))} cell(s) failed",
              file=sys.stderr)
        if "fit_skipped" in summary:
            print(f"no envelope fit: {summary['fit_skipped']}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
