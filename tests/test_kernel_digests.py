"""sha256 pins of the sma, rolling_std, aroon, ema and ama matype 1 bits
on a committed fixture.

The same digests must hold on every supported interpreter: these kernels
sum exact integers, compare indices or run one float recurrence bar by
bar, and never use float ``sum()``, whose rounding changed in Python 3.12. The module needs no pytest, so an
interpreter without it checks the pins with

    PYTHONPATH=src python tests/test_kernel_digests.py
"""
import hashlib
import struct
import sys
from pathlib import Path

from tabacktest.indicators import AmaParams, ama, aroon, ema, rolling_std, sma
from tabacktest.market_data import parse_csv

SP500 = Path(__file__).parent / "data" / "synthetic_sp500.csv"

PINNED = {
    "sma 20": "63e1e45407269b41b8af71e9f28155e7dae5f7a681500407b222b6471c93ff0b",
    "rolling_std 20": "88ae581a1434289b48a3290deaa073b7fdb45572e51d3fdad1de26114c0dfec5",
    "aroon 25": "7588de081e4576b82fcdbbc6250ac8f2fe259ec377ecc18502bf741e1a3bec46",
    "ema 20": "94044ab14945004503f46d0c6eaaa58e098960256aa51945ebff96497b6aff6e",
    "ama 30 2 10 1": "ba95d507e54d9aa8e741b81596b1f755e8325b41e954baa6507900c5689fd21e",
}


def kernel_digests() -> dict[str, str]:
    """sha256 of each output's little-endian float64 bytes."""
    series = parse_csv(SP500).series
    closes = series.closes
    outputs = {
        "sma 20": sma(closes, 20).values,
        "rolling_std 20": rolling_std(closes, 20).values,
        "aroon 25": [v for part in aroon(series, 25) for v in part.values],
        "ema 20": ema(closes, 20).values,
        "ama 30 2 10 1": ama(closes, AmaParams(30, 2, 10, 1)).values,
    }
    return {
        name: hashlib.sha256(struct.pack(f"<{len(values)}d", *values)).hexdigest()
        for name, values in outputs.items()
    }


def test_kernel_bits_are_pinned():
    assert kernel_digests() == PINNED


if __name__ == "__main__":
    digests = kernel_digests()
    for name, pinned in PINNED.items():
        print(f"{name}: {digests[name]} {'ok' if digests[name] == pinned else 'DIFFERS'}")
    sys.exit(0 if digests == PINNED else 1)
