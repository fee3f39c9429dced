"""Command-line front end.

Subcommands: ingest, indicators, backtest, sweep, kelly, report.
Exit codes: 0 ok, 2 input error, 3 domain error. All commands are pure
functions of their inputs and flags; repeated runs write byte-identical
outputs. Errors are reported as machine-readable JSON on stdout.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as cfg
from . import indicators
from .backtest import equity_to_csv, run
from .errors import (
    DomainError,
    EngineError,
    InvalidArgument,
    LengthMismatch,
    MissingInput,
    PathError,
)
# perfbench/test_perfbench.py checks through this name that its span tracer
# rebinds the copies `from .indicators import ...` makes in other modules
from .indicators import sma  # noqa: F401
from .kelly import KellyParams, curve_to_csv, expected_log_return, kelly_curve, optimal_fraction
from .market_data import parse_csv, serialize_csv
from .metrics import TRADING_DAYS_PER_YEAR, build_report
from .strategies import KernelMemo, generate_signals, signals_to_csv
from .sweep import run_sweep, sweep_to_csv


def _json(payload: dict, indent: int | None = None) -> str:
    """The one JSON encoding of stdout and of the .json artifacts."""
    try:
        return json.dumps(payload, sort_keys=True, indent=indent, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError("a result is not a finite number, so it has no JSON form") from None


def _emit(payload: dict) -> None:
    sys.stdout.write(_json(payload))


def _save(out_dir: str, name: str, write, *data) -> str:
    """Write the artifact ``name`` in ``out_dir`` as ``write(*data, handle)``:
    UTF-8, with ``\\n`` line ends on every platform. Returns ``name``."""
    path = Path(out_dir) / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise PathError(f"cannot write {path}: {exc.strerror or exc}") from None
    with handle:
        write(*data, handle)
    return name


def _write_text(text: str, handle) -> None:
    handle.write(text)


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``InvalidArgument``s, so that they
    follow the one-JSON-line contract instead of printing usage to stderr.
    Its subcommand parsers are of this class too."""

    def error(self, message: str):
        raise InvalidArgument(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    # flag groups shared as parents: each subcommand takes only the flags it reads,
    # and its `run` is the cmd_* function the module holds when the parser is built
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--data", required=True, help="OHLCV CSV file")
    data.add_argument("--strict", dest="mode", action="store_const", const="strict",
                      default="strict", help="abort on any invariant violation (default)")
    data.add_argument("--lenient", dest="mode", action="store_const", const="lenient",
                      help="clamp/drop bad rows and count warnings")
    data.add_argument("--use-adjusted", action="store_true",
                      help="map adj_close onto close before validation")
    config = argparse.ArgumentParser(add_help=False)
    config.add_argument("--config", help="key-value tree config file")
    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--trading-days", type=int, default=TRADING_DAYS_PER_YEAR,
                         help="bars per year for annualization and year slicing")
    measure.add_argument("--benchmark", default="self",
                         help="'self' or a CSV path for the information-ratio benchmark")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-dir", default=".", help="directory for output artifacts")

    parser = _Parser(prog="tabacktest", description="Deterministic technical-analysis backtesting")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("ingest", parents=[data, out],
                   help="parse, validate and normalize an OHLCV CSV").set_defaults(run=cmd_ingest)
    p = sub.add_parser("indicators", parents=[data, config, out],
                       help="dump indicator columns aligned to the input")
    p.set_defaults(run=cmd_indicators)
    p.add_argument("--indicator", action="append", default=[],
                   metavar="NAME=SPEC", help="extra column, e.g. sma50='sma 50'")
    sub.add_parser("backtest", parents=[data, config, measure, out],
                   help="run one strategy and write its report").set_defaults(run=cmd_backtest)
    sub.add_parser("sweep", parents=[data, config, measure, out],
                   help="evaluate a parameter grid and rank the cells").set_defaults(run=cmd_sweep)
    p = sub.add_parser("kelly", parents=[out],
                       help="optimal bet fraction and expected log-return curve")
    p.set_defaults(run=cmd_kelly)
    p.add_argument("--p", type=float, required=True, help="win probability")
    p.add_argument("--l-gain", type=float, required=True, help="gain multiple on a win")
    p.add_argument("--m-loss", type=float, default=1.0, help="loss multiple on a loss")
    p.add_argument("--grid-points", type=int, default=101)
    sub.add_parser("report", parents=[data, measure, out], help="measure block and "
                   "return-fit of the series itself").set_defaults(run=cmd_report)
    return parser


def _read_input(load, path, **kwargs):
    """``load(path, **kwargs)``, with a path that exists but cannot be read
    as a file (a directory, no permission, ...) reported as an input
    error. Both loaders raise ``MissingInput`` for a missing path before
    they open it; a file removed after that check is a ``PathError``."""
    try:
        return load(path, **kwargs)
    except OSError as exc:
        raise PathError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_series(args, path=None):
    """``parse_csv`` of ``path``, by default ``--data``, as the flags ask."""
    return _read_input(parse_csv, path or args.data, mode=args.mode, use_adjusted=args.use_adjusted)


def _load_benchmark_closes(args, series):
    """The closes of ``--benchmark``: the data's own, or a CSV's of the same dates."""
    if args.benchmark == "self":
        return series.closes
    bench = _load_series(args, args.benchmark).series
    if len(bench) != len(series):
        raise LengthMismatch(f"benchmark has {len(bench)} bars, data has {len(series)}")
    if bench.dates != series.dates:
        bar = next(i for i, (b, d) in enumerate(zip(bench.dates, series.dates)) if b != d)
        raise LengthMismatch(f"benchmark bar {bar} is dated {bench.dates[bar]}, "
                             f"data bar {bar} is dated {series.dates[bar]}")
    return bench.closes


def _config_tree(args) -> dict:
    if not args.config:
        raise MissingInput("this command needs --config")
    return _read_input(cfg.parse_kv_file, args.config)


def cmd_ingest(args) -> dict:
    parsed = _load_series(args)
    series = parsed.series
    return {
        "output": _save(args.out_dir, "ingested.csv", serialize_csv, series),
        "symbol": series.symbol,
        "bars": len(series),
        "first_date": series.dates[0].isoformat(),
        "last_date": series.dates[-1].isoformat(),
        "warnings": parsed.warnings,
    }


def _indicators_to_csv(closes, columns: dict, handle) -> None:
    handle.write(",".join([*cfg.INDICATOR_FIXED_COLUMNS, *columns]) + "\n")
    handle.writelines(",".join(map(repr, row)) + "\n"
                      for row in zip(range(len(closes)), closes, *columns.values()))


def cmd_indicators(args) -> dict:
    parsed = _load_series(args)
    tree = _read_input(cfg.parse_kv_file, args.config) if args.config else {}
    for extra in args.indicator:
        if "=" not in extra:
            raise InvalidArgument(f"--indicator expects NAME=SPEC, got {extra!r}")
        name, spec = (part.strip() for part in extra.split("=", 1))
        if "." in name:
            # a dotted name would nest as a table under indicator.<first part>
            raise InvalidArgument(f"--indicator NAME must not contain '.', got {name!r}")
        cfg.set_leaf(tree, f"indicator.{name}", spec)
    series = parsed.series
    memo = KernelMemo(series)
    # looked up by name at call time, so a rebinding of the module
    # attribute (as the benchmark's span tracer does) sees every call
    columns = {name: memo(getattr(indicators, kind), *kernel_args).values
               for name, kind, kernel_args in cfg.indicator_columns_from_dict(tree)}
    return {
        "output": _save(args.out_dir, "indicators.csv", _indicators_to_csv, series.closes, columns),
        "bars": len(series),
        "columns": [*cfg.INDICATOR_FIXED_COLUMNS, *columns],
    }


def cmd_backtest(args) -> dict:
    series = _load_series(args).series
    strategy = cfg.strategy_from_dict(_config_tree(args))
    benchmark_closes = _load_benchmark_closes(args, series)
    signals = generate_signals(series, strategy)
    result = run(series, signals)
    report = build_report(result.equity, benchmark_closes, result.buy_count,
                          args.trading_days).to_dict()
    return {"report": report, "outputs": [
        _save(args.out_dir, "report.json", _write_text, _json(report, indent=2)),
        _save(args.out_dir, "equity.csv", equity_to_csv, result, series),
        _save(args.out_dir, "signals.csv", signals_to_csv, signals),
    ]}


def cmd_sweep(args) -> dict:
    series = _load_series(args).series
    spec = cfg.sweep_from_dict(_config_tree(args))
    benchmark_closes = _load_benchmark_closes(args, series)
    result = run_sweep(series, spec, benchmark_closes, args.trading_days)
    best = result.rows[0]
    return {
        "output": _save(args.out_dir, "sweep.csv", sweep_to_csv, result.rows, spec),
        "cells_ranked": len(result.rows),
        "dropped_by_kind": result.dropped,
        "below_min_trades": result.below_min_trades,
        "grid_size": spec.grid_size(),
        "objective": spec.objective,
        "best_params": {path: value for path, value in best.params},
        "best_objective": best.objective_value,
    }


def cmd_kelly(args) -> dict:
    params = KellyParams(p=args.p, l_gain=args.l_gain, m_loss=args.m_loss)
    best = optimal_fraction(params)
    curve = kelly_curve(params, args.grid_points)
    # kelly.json holds the stdout payload, "command" included
    payload = {
        "command": "kelly",
        "output": _save(args.out_dir, "kelly_curve.csv", curve_to_csv, curve),
        "p": params.p,
        "l_gain": params.l_gain,
        "m_loss": params.m_loss,
        "optimal_fraction": best,
        "expected_log_return_at_optimum": expected_log_return(best, params) if best < 1.0 else None,
    }
    _save(args.out_dir, "kelly.json", _write_text, _json(payload, indent=2))
    return payload


def cmd_report(args) -> dict:
    series = _load_series(args).series
    benchmark_closes = _load_benchmark_closes(args, series)
    report = build_report(series.closes, benchmark_closes, 0, args.trading_days).to_dict()
    return {"report": report,
            "output": _save(args.out_dir, "report.json", _write_text, _json(report, indent=2))}


def main(argv=None) -> int:
    """Run one command line: print its one JSON line and return its exit code."""
    try:
        args = build_parser().parse_args(argv)
        if getattr(args, "trading_days", 1) < 1:
            raise InvalidArgument(f"--trading-days must be >= 1, got {args.trading_days}")
        _emit({"command": args.command, **args.run(args)})
        return 0
    except EngineError as exc:
        return _fail(exc)


def _fail(exc: EngineError) -> int:
    _emit({"error": {"kind": exc.kind, "message": str(exc)}})
    return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
