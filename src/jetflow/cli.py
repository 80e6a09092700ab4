"""Command line entry point.

    jetflow run CONFIG.json        run an experiment described by a JSON config
    jetflow validate CONFIG.json   check a config without running it
    jetflow demo KIND [--out DIR]  write a canned config for an experiment kind

Exit codes: 0 success, 1 pipeline failure, 2 bad config or arguments, or an
output directory that cannot be written.
Errors are written to stderr as single-line JSON records.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, JetflowError
from .experiments import KINDS, demo_config, resolve_output_dir, run_experiment, validate_config


def _error_record(kind: str, **fields) -> None:
    print(json.dumps({"error": kind, **fields}), file=sys.stderr)


def _config_invalid(path: str, issues) -> int:
    _error_record("config-invalid", path=path,
                  issues=[{"field": f, "reason": r} for f, r in issues])
    return 2


def _output_unwritable(path, exc: OSError) -> int:
    _error_record("output-unwritable", path=str(path), reason=str(exc))
    return 2


def _load_config(path: str) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        _error_record("config-unreadable", path=path, reason=str(exc))
    except json.JSONDecodeError as exc:
        _error_record("config-not-json", path=path, reason=str(exc))
    return None


def _cmd_run(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    try:
        result = run_experiment(cfg)
    except ConfigError as exc:
        return _config_invalid(args.config, exc.issues)
    except JetflowError as exc:
        _error_record("pipeline-failure", type=type(exc).__name__, reason=str(exc))
        return 1
    except OSError as exc:
        return _output_unwritable(resolve_output_dir(cfg), exc)
    print(json.dumps(result["summary"], sort_keys=True))
    print(f"wrote {result['csv']}")
    print(f"wrote {result['manifest']}")
    return 0


def _cmd_validate(args) -> int:
    cfg = _load_config(args.config)
    if cfg is None:
        return 2
    issues = validate_config(cfg)
    if issues:
        return _config_invalid(args.config, issues)
    print(f"{args.config}: ok")
    return 0


def _cmd_demo(args) -> int:
    cfg = demo_config(args.kind)
    outdir = Path(args.out)
    path = outdir / f"{args.kind}.json"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        return _output_unwritable(outdir, exc)
    print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="jetflow",
                                     description="jet-based operator estimation pipelines")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a JSON config")
    p_run.add_argument("config", help="path to config JSON")
    p_run.set_defaults(func=_cmd_run)

    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config", help="path to config JSON")
    p_val.set_defaults(func=_cmd_validate)

    p_demo = sub.add_parser("demo", help="write a canned demo config")
    p_demo.add_argument("kind", choices=KINDS)
    p_demo.add_argument("--out", default=".", help="directory for the config file")
    p_demo.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments already; normalize other codes
        return 2 if exc.code else 0
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
