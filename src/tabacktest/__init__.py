"""Deterministic technical-analysis backtesting engine.

Daily OHLCV in; indicators, alternating Buy/Sell signals, an all-in
long-only equity curve, the full performance-measure block, and Kelly
bet sizing out. Everything is a pure function of its inputs.
"""

from .backtest import BacktestResult, EquityCurve, Trade, run
from .errors import EngineError
from .indicators import (
    AmaParams,
    BandSet,
    IndicatorSeries,
    MaSpec,
    ama,
    aroon,
    atr,
    bollinger,
    efficiency_ratio,
    ema,
    keltner,
    macd,
    rmi,
    rsi,
    sma,
    true_range,
)
from .kelly import KellyParams, expected_log_return, kelly_curve, optimal_fraction
from .market_data import OhlcvSeries, parse_csv, serialize_csv, slice_years
from .metrics import (
    MetricReport,
    build_report,
    daily_returns,
    gaussian_fit,
    information_ratio_annual,
    max_drawdown,
    sharpe_annual,
    yearly_rr,
)
from .strategies import (
    AroonConfig,
    BollingerConfig,
    KeltnerConfig,
    MacdConfig,
    PriceCrossConfig,
    RsiConfig,
    TwoAverageConfig,
    generate_signals,
)

__version__ = "0.1.0"

__all__ = [
    "AmaParams",
    "AroonConfig",
    "BacktestResult",
    "BandSet",
    "BollingerConfig",
    "EngineError",
    "EquityCurve",
    "IndicatorSeries",
    "KellyParams",
    "KeltnerConfig",
    "MaSpec",
    "MacdConfig",
    "MetricReport",
    "OhlcvSeries",
    "PriceCrossConfig",
    "RsiConfig",
    "Trade",
    "TwoAverageConfig",
    "ama",
    "aroon",
    "atr",
    "bollinger",
    "build_report",
    "daily_returns",
    "efficiency_ratio",
    "ema",
    "expected_log_return",
    "gaussian_fit",
    "generate_signals",
    "information_ratio_annual",
    "kelly_curve",
    "keltner",
    "macd",
    "max_drawdown",
    "optimal_fraction",
    "parse_csv",
    "rmi",
    "rsi",
    "run",
    "serialize_csv",
    "sharpe_annual",
    "slice_years",
    "sma",
    "true_range",
    "yearly_rr",
]
