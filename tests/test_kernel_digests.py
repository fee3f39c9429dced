"""sha256 pins of the sma, rolling_std, aroon, ema and ama matype 1 bits,
and of the ``signals.csv`` and ``equity.csv`` bytes of seven backtests,
on a committed fixture.

The same digests must hold on every supported interpreter: these kernels
sum exact integers, compare indices or run one float recurrence bar by
bar, and never use float ``sum()``, whose rounding changed in Python 3.12;
a backtest's signals and equity are built from those kernels and running
products. The module needs no pytest, so an interpreter without it checks
the pins with

    PYTHONPATH=src python tests/test_kernel_digests.py

and ``test_interpreters.py`` runs that command under each of Python 3.10
to 3.13 it finds.
"""
import hashlib
import io
import struct
import sys
from pathlib import Path

from tabacktest.backtest import equity_to_csv, run
from tabacktest.config import parse_kv_text, strategy_from_dict
from tabacktest.indicators import AmaParams, ama, aroon, ema, rolling_std, sma
from tabacktest.market_data import parse_csv
from tabacktest.strategies import generate_signals, signals_to_csv

ROOT = Path(__file__).resolve().parent.parent
SP500 = ROOT / "tests" / "data" / "synthetic_sp500.csv"

# the backtest configs of the benchmark's backtest_suite workload
SUITE_STRATEGIES = {
    "two_average": "strategy = two_average\nfast.kind = sma\nfast.period = 20\n"
                   "slow.kind = sma\nslow.period = 100\n",
    "price_cross": "strategy = price_cross\nma.matype = 2\nma.timeperiod_long = 51\n"
                   "ma.timeperiod_short = 5\nma.ada_win = 12\n",
    "keltner": "strategy = keltner\nma.kind = ema\nma.period = 50\n",
    "rsi": "strategy = rsi\nrsi.n = 14\nrsi.rsitype = 2\nrsi.sma_n = 100\n",
    "aroon": "strategy = aroon\naroon.n = 100\n",
    "bollinger": "strategy = bollinger\nbollinger.n = 100\n",
    "macd": "strategy = macd\n",
}

PINNED = {
    "sma 20": "63e1e45407269b41b8af71e9f28155e7dae5f7a681500407b222b6471c93ff0b",
    "rolling_std 20": "88ae581a1434289b48a3290deaa073b7fdb45572e51d3fdad1de26114c0dfec5",
    "aroon 25": "7588de081e4576b82fcdbbc6250ac8f2fe259ec377ecc18502bf741e1a3bec46",
    "ema 20": "94044ab14945004503f46d0c6eaaa58e098960256aa51945ebff96497b6aff6e",
    "ama 30 2 10 1": "ba95d507e54d9aa8e741b81596b1f755e8325b41e954baa6507900c5689fd21e",
    "two_average signals.csv": "bfb7ed3d1083b87d097033777eeab99624ac29f40d331a211aec4b5e20f67668",
    "two_average equity.csv": "c575b7b03478e488a157a44735d7b0f0f12171cb230ee7abfeecab849760d646",
    "price_cross signals.csv": "666242785ca015646b8e1e233741a6a44a9fbcc8449e86d3646b52ba215b124d",
    "price_cross equity.csv": "c542ec6530118d1c4d2e751437b41fe2934148e3cc091e4a38c55f4dec496c5e",
    "keltner signals.csv": "db6b0dac437563f2ce1698ee63058f0d44adf807c59885a400015dc7cf9048e4",
    "keltner equity.csv": "4ef955e17e94cf26eb64473054a5c818b97075f25ceeb58a3e454b54301272f7",
    "rsi signals.csv": "2225e39d6d772b3edf1606eec38b751c2c00f65eed76166846009ccfe020b397",
    "rsi equity.csv": "712ebc4e3cf92d372f43826b3f83efc83daf88a86da49d4586a00c07a83f2ec7",
    "aroon signals.csv": "cf1183a62ec13a966e2f960ed9f20b78d73cd6681608d3e683c067102486098c",
    "aroon equity.csv": "0a35589c2f0b3e418acbe938e785e022853af7d71c6249527e0fa43045c24b51",
    "bollinger signals.csv": "8e2c912aa86f0c2ca99772abe5aadd2a60afe373cac530bdeb4c84bd5f2e100f",
    "bollinger equity.csv": "b3f1889b8679c675fa5f7c364529df3eada18fc4f40c1f5377fcb28676293c8f",
    "macd signals.csv": "9601f4b315747c820b030a52ce8b61667100bc7cf559b957dfe5a6e0f674e78a",
    "macd equity.csv": "d586423707f7ac7504761339bf2f01a27be5b772b83fcf6f3a0c0c865de29d04",
}


def kernel_digests() -> dict[str, str]:
    """sha256 of each output's little-endian float64 bytes, and of each
    suite backtest's ``signals.csv`` and ``equity.csv``."""
    series = parse_csv(SP500).series
    closes = series.closes
    outputs = {
        "sma 20": sma(closes, 20).values,
        "rolling_std 20": rolling_std(closes, 20).values,
        "aroon 25": [v for part in aroon(series, 25) for v in part.values],
        "ema 20": ema(closes, 20).values,
        "ama 30 2 10 1": ama(closes, AmaParams(30, 2, 10, 1)).values,
    }
    digests = {
        name: hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
        for name, values in outputs.items()
    }
    for name, text in SUITE_STRATEGIES.items():
        signals = generate_signals(series, strategy_from_dict(parse_kv_text(text)))
        result = run(series, signals)
        for artifact, write, data in (("signals.csv", signals_to_csv, (signals,)),
                                      ("equity.csv", equity_to_csv, (result, series))):
            handle = io.StringIO()
            write(*data, handle)
            digests[f"{name} {artifact}"] = hashlib.sha256(
                handle.getvalue().encode("utf-8")).hexdigest()
    return digests


def test_kernel_bits_are_pinned():
    assert kernel_digests() == PINNED


if __name__ == "__main__":
    digests = kernel_digests()
    for name, pinned in PINNED.items():
        print(f"{name}: {digests[name]} {'ok' if digests[name] == pinned else 'DIFFERS'}")
    sys.exit(0 if digests == PINNED else 1)
