"""Command-line entry point.

Exit codes: 0 success, 2 configuration error or an input outside the
physical domain, 3 physics instability, 4 numerical or fit failure.
``run`` checks the configured drives with ``validate_system`` first and,
as ``validate`` does, exits 3 when a check fails, before it makes the
output directory.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .config import config_digest, load_config
from .errors import ConfigError, DomainError, FitError, InstabilityError, NumericalError
from .scenarios import run_scenario
from .sysmodel import validate_system

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNSTABLE = 3
EXIT_NUMERICAL = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twotone",
        description=(
            "Two-cavity electromechanics: simulate reservoir-engineered "
            "mechanical squeezing and its single-quadrature readout, and run "
            "the synthetic measurement scenarios."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its artifacts")
    run.add_argument("--config", required=True, help="configuration file (JSON)")
    run.add_argument("--out", help="output directory (defaults to scenario.output_dir)")
    run.add_argument("--seed", type=int, help="override the configured RNG seed")

    val = sub.add_parser("validate", help="check a configuration and report physics")
    val.add_argument("--config", required=True, help="configuration file (JSON)")

    sub.add_parser("version", help="print the toolkit version")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "version":
            print(__version__)
            return EXIT_OK
        if args.command == "validate":
            cfg, ds, scenario = load_config(args.config)
            report = validate_system(cfg, ds)
            print(report)
            print(f"scenario: {scenario.name}")
            print("configuration valid" if report.passed else "physics checks FAILED")
            return EXIT_OK if report.passed else EXIT_UNSTABLE
        if args.command == "run":
            cfg, ds, scenario = load_config(args.config)
            out_dir = args.out or scenario.outputs
            if out_dir is None:
                raise ConfigError("no output directory: pass --out or set scenario.output_dir")
            failed = validate_system(cfg, ds).failures()
            if failed:
                raise InstabilityError(f"physics checks failed: {', '.join(c.name for c in failed)}")
            manifest = run_scenario(
                cfg,
                ds,
                scenario,
                out_dir,
                seed=args.seed,
                config_digest=config_digest(args.config),
            )
            print(f"{scenario.name}: {len(manifest.artifacts)} artifacts in {out_dir}")
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except (ConfigError, DomainError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InstabilityError as exc:
        print(f"instability: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except (NumericalError, FitError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
