"""Command-line interface: measure, scan.

Exit codes: 0 success, 1 configuration error or unwritable output, 2
numeric failure in at least one scan row or measured value.
"""

from __future__ import annotations

import argparse
import os
import resource
import sys

from . import harness
from .errors import ConfigError, NesscorrError


def _read_config(path: str) -> harness.ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return harness.parse_config(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc


def _check_writable(path: str | None) -> None:
    """Fail before any work if ``path``'s directory is missing or read-only."""
    directory = os.path.dirname(os.path.abspath(path)) if path else ""
    if path and not (os.path.isdir(directory) and os.access(directory, os.W_OK)):
        raise ConfigError(f"cannot write {path!r}: no writable directory {directory!r}")


def _write(text: str, path: str | None) -> None:
    """``text`` to the file ``path``, or to stdout when there is none."""
    if not path:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path!r}: {exc}") from exc


def _cmd_measure(args) -> int:
    _check_writable(args.out)
    result = harness.measure_point(_read_config(args.config))
    _write(harness.to_json(result) + "\n", args.out)
    failed = any("numeric_error" in r for r in result["measures"].values())
    return 2 if failed else 0


def _cmd_scan(args) -> int:
    cfg = _read_config(args.config)
    out = args.out or cfg.output_csv
    _check_writable(out)
    rows = harness.run_scan(cfg)
    _write(harness.rows_to_csv([r for r in rows if r.error is None]), out)
    summary = harness.scan_summary(rows)
    # ru_maxrss is in KiB on Linux: the process's peak resident set so far
    summary["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(harness.to_json(summary), file=sys.stderr)
    return 2 if summary["failed_rows"] else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nesscorr",
        description="Correlation measures of biased free fermions with an impurity")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate one configuration, emit JSON")
    p.add_argument("config")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("scan", help="run a parameter scan, emit CSV")
    p.add_argument("config")
    p.add_argument("--out", default=None, help="override output.csv from config")
    p.set_defaults(func=_cmd_scan)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NesscorrError as exc:
        print(f"numeric failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
