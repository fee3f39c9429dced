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
from .backtest import equity_to_csv, run
from .errors import (
    EngineError,
    InvalidArgument,
    LengthMismatch,
    MissingInput,
    PathError,
)
from .indicators import AmaParams, ama, ema, rmi, rsi, sma
from .kelly import KellyParams, curve_to_csv, expected_log_return, kelly_curve, optimal_fraction
from .market_data import parse_csv, serialize_csv
from .metrics import build_report
from .strategies import generate_signals, signals_to_csv
from .sweep import run_sweep, sweep_to_csv


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _common_flags(parser: argparse.ArgumentParser, need_data: bool = True) -> None:
    if need_data:
        parser.add_argument("--data", required=True, help="OHLCV CSV file")
        parser.add_argument("--strict", dest="mode", action="store_const", const="strict",
                            default="strict", help="abort on any invariant violation (default)")
        parser.add_argument("--lenient", dest="mode", action="store_const", const="lenient",
                            help="clamp/drop bad rows and count warnings")
        parser.add_argument("--use-adjusted", action="store_true",
                            help="map adj_close onto close before validation")
    parser.add_argument("--config", help="key-value tree config file")
    parser.add_argument("--out-dir", default=".", help="directory for output artifacts")
    parser.add_argument("--trading-days", type=int, default=252,
                        help="bars per year for annualization and year slicing")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tabacktest",
                                     description="Deterministic technical-analysis backtesting")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, validate and normalize an OHLCV CSV")
    _common_flags(p)

    p = sub.add_parser("indicators", help="dump indicator columns aligned to the input")
    _common_flags(p)
    p.add_argument("--indicator", action="append", default=[],
                   metavar="NAME=SPEC", help="extra column, e.g. sma50='sma 50'")

    p = sub.add_parser("backtest", help="run one strategy and write its report")
    _common_flags(p)
    p.add_argument("--benchmark", default="self",
                   help="'self' or a CSV path for the information-ratio benchmark")

    p = sub.add_parser("sweep", help="evaluate a parameter grid and rank the cells")
    _common_flags(p)
    p.add_argument("--jobs", type=int, default=1, help="concurrent grid workers")
    p.add_argument("--benchmark", default="self",
                   help="'self' or a CSV path for the information-ratio benchmark")

    p = sub.add_parser("kelly", help="optimal bet fraction and expected log-return curve")
    _common_flags(p, need_data=False)
    p.add_argument("--p", type=float, required=True, help="win probability")
    p.add_argument("--l-gain", type=float, required=True, help="gain multiple on a win")
    p.add_argument("--m-loss", type=float, default=1.0, help="loss multiple on a loss")
    p.add_argument("--grid-points", type=int, default=101)

    p = sub.add_parser("report", help="measure block and return-fit of the series itself")
    _common_flags(p)
    p.add_argument("--benchmark", default="self",
                   help="'self' or a CSV path for the information-ratio benchmark")

    return parser


def _read_input(load, path, **kwargs):
    """``load(path, **kwargs)``, with a path that exists but cannot be read
    as a file (a directory, no permission, ...) reported as an input
    error."""
    try:
        return load(path, **kwargs)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise PathError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_series(args):
    return _read_input(parse_csv, args.data, mode=args.mode, use_adjusted=args.use_adjusted)


def _load_benchmark_closes(args, series):
    if args.benchmark == "self":
        return series.closes
    bench = _read_input(parse_csv, args.benchmark, mode=args.mode, use_adjusted=args.use_adjusted)
    if len(bench.series) != len(series):
        raise LengthMismatch(
            f"benchmark has {len(bench.series)} bars, data has {len(series)}"
        )
    return bench.series.closes


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_tree(args) -> dict:
    if not args.config:
        raise MissingInput("this command needs --config")
    return _read_input(cfg.parse_kv_file, args.config)


def cmd_ingest(args) -> int:
    parsed = _load_series(args)
    out = _out_dir(args)
    serialize_csv(parsed.series, out / "ingested.csv")
    dates = parsed.series.dates
    _emit({
        "command": "ingest",
        "symbol": parsed.series.symbol,
        "bars": len(parsed.series),
        "first_date": dates[0].isoformat(),
        "last_date": dates[-1].isoformat(),
        "warnings": parsed.warnings,
        "output": "ingested.csv",
    })
    return 0


def _indicator_values(series, column: cfg.IndicatorColumn) -> list[float]:
    spec = column.spec
    if isinstance(spec, AmaParams):
        return ama(series.closes, spec).values
    kind = spec[0]
    if kind == "sma":
        return sma(series.closes, spec[1]).values
    if kind == "ema":
        return ema(series.closes, spec[1]).values
    if kind == "rsi":
        return rsi(series.closes, spec[1]).values
    return rmi(series.closes, spec[1], spec[2]).values


def cmd_indicators(args) -> int:
    parsed = _load_series(args)
    tree = _read_input(cfg.parse_kv_file, args.config) if args.config else {}
    for extra in args.indicator:
        if "=" not in extra:
            raise MissingInput(f"--indicator expects NAME=SPEC, got {extra!r}")
        name, spec = extra.split("=", 1)
        cfg.set_leaf(tree, f"indicator.{name.strip()}", spec.strip())
    columns = cfg.indicator_columns_from_dict(tree)
    series = parsed.series
    values = [(column.name, _indicator_values(series, column)) for column in columns]
    out = _out_dir(args)
    with open(out / "indicators.csv", "w", encoding="utf-8", newline="") as handle:
        handle.write(",".join(["index", "close"] + [name for name, _ in values]) + "\n")
        closes = series.closes
        for i in range(len(series)):
            row = [str(i), repr(closes[i])] + [repr(vals[i]) for _, vals in values]
            handle.write(",".join(row) + "\n")
    _emit({
        "command": "indicators",
        "bars": len(series),
        "columns": ["index", "close"] + [name for name, _ in values],
        "output": "indicators.csv",
    })
    return 0


def cmd_backtest(args) -> int:
    parsed = _load_series(args)
    series = parsed.series
    strategy = cfg.strategy_from_dict(_config_tree(args))
    benchmark_closes = _load_benchmark_closes(args, series)
    signals = generate_signals(series, strategy)
    result = run(series, signals)
    report = build_report(result.equity, benchmark_closes, result.buy_count, args.trading_days)
    out = _out_dir(args)
    _write_json(out / "report.json", report.to_dict())
    equity_to_csv(result, series, out / "equity.csv")
    signals_to_csv(signals, out / "signals.csv")
    _emit({
        "command": "backtest",
        "report": report.to_dict(),
        "outputs": ["report.json", "equity.csv", "signals.csv"],
    })
    return 0


def cmd_sweep(args) -> int:
    parsed = _load_series(args)
    series = parsed.series
    spec = cfg.sweep_from_dict(_config_tree(args))
    benchmark_closes = _load_benchmark_closes(args, series)
    result = run_sweep(series, spec, benchmark_closes, args.trading_days, jobs=args.jobs)
    out = _out_dir(args)
    sweep_to_csv(result.rows, spec, out / "sweep.csv")
    best = result.rows[0]
    _emit({
        "command": "sweep",
        "cells_ranked": len(result.rows),
        "dropped_by_kind": result.dropped,
        "below_min_trades": result.below_min_trades,
        "grid_size": spec.grid_size(),
        "objective": spec.objective,
        "best_params": {path: value for path, value in best.params},
        "best_objective": best.objective_value,
        "output": "sweep.csv",
    })
    return 0


def cmd_kelly(args) -> int:
    params = KellyParams(p=args.p, l_gain=args.l_gain, m_loss=args.m_loss)
    best = optimal_fraction(params)
    curve = kelly_curve(params, args.grid_points)
    out = _out_dir(args)
    curve_to_csv(curve, out / "kelly_curve.csv")
    payload = {
        "command": "kelly",
        "p": params.p,
        "l_gain": params.l_gain,
        "m_loss": params.m_loss,
        "optimal_fraction": best,
        "expected_log_return_at_optimum": expected_log_return(best, params) if best < 1.0 else None,
        "output": "kelly_curve.csv",
    }
    _write_json(out / "kelly.json", payload)
    _emit(payload)
    return 0


def cmd_report(args) -> int:
    from .backtest import EquityCurve

    parsed = _load_series(args)
    series = parsed.series
    closes = series.closes
    benchmark_closes = _load_benchmark_closes(args, series)
    equity = EquityCurve(tuple(closes), closes[0], closes[-1])
    report = build_report(equity, benchmark_closes, 0, args.trading_days)
    out = _out_dir(args)
    _write_json(out / "report.json", report.to_dict())
    _emit({"command": "report", "report": report.to_dict(), "output": "report.json"})
    return 0


_COMMANDS = {
    "ingest": cmd_ingest,
    "indicators": cmd_indicators,
    "backtest": cmd_backtest,
    "sweep": cmd_sweep,
    "kelly": cmd_kelly,
    "report": cmd_report,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trading_days < 1:
            raise InvalidArgument(f"--trading-days must be >= 1, got {args.trading_days}")
        return _COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        return _fail(MissingInput(str(exc)))
    except EngineError as exc:
        return _fail(exc)


def _fail(exc: EngineError) -> int:
    _emit({"error": {"kind": exc.kind, "message": str(exc)}})
    return exc.exit_code


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
