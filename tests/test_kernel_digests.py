"""sha256 pins of the sma, rolling_std, aroon, ema and ama matype 1 bits,
of the ``signals.csv`` and ``equity.csv`` bytes of seven backtests, and
of the ``report.json`` of one backtest and the stdout and ``sweep.csv``
of three sweeps, on committed fixtures.

The same digests must hold on every supported interpreter: these kernels
sum exact integers, compare indices or run one float recurrence bar by
bar, and never use float ``sum()``, whose rounding changed in Python 3.12;
a backtest's signals and equity are built from those kernels and running
products, and the measure block's means and deviations from exact integer
sums. The module needs no pytest, so an interpreter without it checks the
pins with

    PYTHONPATH=src python tests/test_kernel_digests.py

and ``test_interpreters.py`` runs that command under each of Python 3.10
to 3.13 it finds.
"""
import hashlib
import io
import struct
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from tabacktest.backtest import equity_to_csv, run
from tabacktest.cli import main
from tabacktest.config import parse_kv_text, strategy_from_dict
from tabacktest.indicators import AmaParams, ama, aroon, ema, rolling_std, sma
from tabacktest.market_data import parse_csv
from tabacktest.strategies import generate_signals, signals_to_csv

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SP500 = DATA / "synthetic_sp500.csv"

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

# sweeps on synthetic_sp500.csv whose stdout and sweep.csv are pinned
SWEEPS = {
    "two_average": "strategy = two_average\nfast.kind = sma\nfast.period = 2:20:2\n"
                   "slow.kind = sma\nslow.period = 30:120:10\n",
    "keltner": "strategy = keltner\nobjective = ir_annual\nma.kind = ema\nma.period = 20\n"
               "keltner.mult = 0.5:3:0.5\n",
    "bollinger": "strategy = bollinger\nobjective = rr_whole\nbollinger.n = 20\n"
                 "bollinger.dev = 0.5:3:0.5\n",
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
    # the bytes of tests/data/v_golden_report.json
    "v_fixture report.json": "b3f1701e9e568e3880bec117358ec964852869efc94c7ec3c255f666bd3a46f5",
    "two_average sweep stdout": "910eadbe7f2f02fc006781a4fd2a968fc9b1b3f1a1ebb1848b92c2b210430835",
    "two_average sweep.csv": "253f2dc78844ce0f71e5aefff7db324879f045257eb122d24e34d44cc65d2cd7",
    "keltner sweep stdout": "cafcd9a8c27f79a5ada95c240fee620296ca39488a181f66f4b042ae789f5181",
    "keltner sweep.csv": "8ce480e928d4d2e7a7796ff3b737c2ab7570818a441fe4fd5ec5bb3439e950e0",
    "bollinger sweep stdout": "adfa470506c068c65cac32c0c050f55dc26d963e27716a554eb551f1b2a2415e",
    "bollinger sweep.csv": "a6c23a5adece2a062a89a86e7c25358c2edd3e9d6b8b800c0a352db9a61a6c5f",
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


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def cli_digests() -> dict[str, str]:
    """sha256 of the ``report.json`` of ``backtest`` on ``v_fixture.csv`` with
    ``v_strategy.cfg``, and of the stdout and ``sweep.csv`` of each sweep."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        with redirect_stdout(io.StringIO()):
            code = main(["backtest", "--data", str(DATA / "v_fixture.csv"),
                         "--config", str(DATA / "v_strategy.cfg"), "--out-dir", str(out / "v")])
        assert code == 0, "backtest failed"
        digests["v_fixture report.json"] = _sha((out / "v" / "report.json").read_bytes())
        for name, text in SWEEPS.items():
            config = out / f"{name}.cfg"
            config.write_text(text)
            with redirect_stdout(io.StringIO()) as stdout:
                code = main(["sweep", "--data", str(SP500), "--config", str(config),
                             "--out-dir", str(out / name)])
            assert code == 0, f"{name} sweep failed"
            digests[f"{name} sweep stdout"] = _sha(stdout.getvalue().encode("utf-8"))
            digests[f"{name} sweep.csv"] = _sha((out / name / "sweep.csv").read_bytes())
    return digests


def all_digests() -> dict[str, str]:
    return {**kernel_digests(), **cli_digests()}


def test_kernel_bits_are_pinned():
    assert all_digests() == PINNED


if __name__ == "__main__":
    digests = all_digests()
    for name, pinned in PINNED.items():
        print(f"{name}: {digests[name]} {'ok' if digests[name] == pinned else 'DIFFERS'}")
    sys.exit(0 if digests == PINNED else 1)
