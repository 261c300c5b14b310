"""Command-line entry point.

    strat2d {simulate|picard|strichartz-sweep|lifespan-sweep|verify-estimates|kappa0|bands}
            --config FILE [--override key=value ...]

The config file is JSON; --override patches dotted keys (values parsed as
JSON when possible).  Exit code 0 means every acceptance flag attached to
the experiment passed, 1 that one failed, 2 a configuration error and 3
any other failure.
"""

from __future__ import annotations

import argparse
import sys
import traceback

from .errors import ConfigError, Strat2dError
from .harness import KINDS, load_config, run_experiment

# CLI verb -> ExperimentConfig.kind
SUBCOMMANDS = {verb: kind for kind, (verb, *_) in KINDS.items()}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strat2d",
        description="Pseudospectral laboratory for the 2D stratified Boussinesq system",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                       help="patch a config entry (dotted keys, JSON values)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = load_config(args.config, args.override)
        expected = SUBCOMMANDS[args.command]
        if config.kind != expected:
            raise ConfigError(
                f"config kind {config.kind!r} does not match subcommand "
                f"{args.command!r} (expected {expected!r})"
            )
        manifest = run_experiment(config)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Strat2dError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # unclassified: a defect, never a failed flag (exit 1)
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3
    for name, ok in manifest.flags.items():
        print(f"{name}: {'PASS' if ok else 'FAIL'}")
    print(f"outputs in {config.output_dir} ({len(manifest.outputs)} files, "
          f"{manifest.wall_clock:.1f}s)")
    return 0 if manifest.passed else 1


if __name__ == "__main__":
    sys.exit(main())
