"""sha256 pins of the sma, rolling_std, aroon, ema, efficiency_ratio and
ama matype 1 and 2 bits, of the middle, upper and lower lines of three
band sets, of the ``signals.csv`` and ``equity.csv`` bytes of seven
backtests, of the stdout and every artifact of a backtest, six ingests
(two of which fail), two reports, a kelly run and two indicator dumps,
and of the stdout and ``sweep.csv`` of seven sweeps, one per strategy, on
committed fixtures or on four small CSVs written here.

The same digests must hold on every supported interpreter: these kernels
sum exact integers, compare indices or run one float recurrence bar by
bar, and never use float ``sum()``, whose rounding changed in Python 3.12;
a backtest's signals and equity are built from those kernels and running
products, and the measure block's means and deviations from exact integer
sums. The parser reads only ``YYYY-MM-DD`` dates and stops at a NUL on
each interpreter, though the ``datetime`` and ``csv`` modules of 3.11+
accept more. The module needs no pytest, so an interpreter without it
checks the pins with

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
from tabacktest.indicators import (
    AmaParams, MaSpec, ama, aroon, bollinger, efficiency_ratio, ema, keltner, rolling_std, sma,
)
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
    "rsi": "strategy = rsi\nrsi.n = 5:15:5\nrsi.down_thres = 30,40\nrsi.upper_thres = 60,70\n"
           "rsi.diff_rate = 0.01\nrsi.rsitype = 1,2\nrsi.sma_n = 20\n",
    "aroon": "strategy = aroon\nobjective = ir_annual\naroon.n = 10:50:10\naroon.aroon_type = 1,2\n",
    "macd": "strategy = macd\nobjective = rr_whole\nmacd.short_n = 6,12\nmacd.long_n = 20,26\n"
            "macd.signal_n = 5,9\n",
    "price_cross": "strategy = price_cross\nma.matype = 1\nma.timeperiod_long = 21,31,41\n"
                   "ma.timeperiod_short = 3,5\nma.ada_win = 8,12\n",
}

# one row each of a swapped low/high, a close above high, a negative
# volume and all-empty prices, between clean rows: lenient ingest repairs
# the first three and drops the fourth
DIRTY_CSV = (
    "date,open,high,low,close,volume\n"
    "2021-01-04,10.0,10.5,9.5,10.2,100\n"
    "2021-01-05,10.2,9.8,10.6,10.4,120\n"
    "2021-01-06,10.4,10.9,10.1,11.3,90\n"
    "2021-01-07,10.8,11.0,10.5,10.7,-5\n"
    "2021-01-08,,,,,80\n"
    "2021-01-11,10.7,11.2,10.6,11.0,110\n"
)
DIRTY = "<the DIRTY_CSV file>"

# a plain file (no quote, CR or NUL) with one row each of a swapped
# low/high, an open above high, a close below low and a negative volume,
# and no row that lenient ingest drops: it repairs all four in its chunks
# of whole columns, never in the row loop
PLAIN_DIRTY_CSV = (
    "date,open,high,low,close,adj_close,volume\n"
    "2021-01-04,10.0,10.5,9.5,10.2,10.1,100\n"
    "2021-01-05,10.2,9.8,10.6,10.4,10.3,120\n"
    "2021-01-06,11.4,10.9,10.1,10.6,10.5,90\n"
    "2021-01-07,10.6,11.0,10.5,10.25,10.2,110\n"
    "2021-01-08,10.7,11.1,10.6,10.3,10.2,105\n"
    "2021-01-11,10.8,11.2,10.7,11.0,10.9,-7\n"
    "2021-01-12,11.0,11.4,10.9,11.2,11.1,130\n"
)
PLAIN_DIRTY = "<the PLAIN_DIRTY_CSV file>"

# a good row, then dates that Python 3.11+ fromisoformat reads but that
# are not YYYY-MM-DD, then a NUL in the unread adj_close cell, which the
# csv module reads into the cell from 3.11 on: strict ingest stops at the
# first date, lenient ingest drops both dates and stops at the NUL
NUL_CSV = (
    "date,open,high,low,close,adj_close,volume\n"
    "2021-01-04,10.0,10.5,9.5,10.2,10.1,100\n"
    "20210105,10.2,10.8,10.0,10.4,10.3,120\n"
    "2021-W01-3,10.4,10.9,10.1,10.6,10.5,90\n"
    "2021-01-07,10.6,11.0,10.5,10.7,10.\x006,110\n"
)
NUL = "<the NUL_CSV file>"

# volumes past 2**53, which an ingest reads and writes back exactly, and
# whole floats, which it reads through their floats
EXACT_CSV = (
    "date,open,high,low,close,volume\n"
    "2021-01-04,10.0,10.5,9.5,10.2,10000000000000000001\n"
    "2021-01-05,10.2,10.8,10.0,10.4,9007199254740993\n"
    "2021-01-06,10.4,10.9,10.1,10.6,1e3\n"
    "2021-01-07,10.6,11.0,10.5,10.7,120.0\n"
)
EXACT = "<the EXACT_CSV file>"

# CLI runs whose stdout and artifacts are pinned: argv without --out-dir,
# the artifacts the run writes and its exit code
CLI_RUNS = {
    "v_fixture": (["backtest", "--data", str(DATA / "v_fixture.csv"),
                   "--config", str(DATA / "v_strategy.cfg")],
                  ["report.json", "equity.csv", "signals.csv"], 0),
    "ingest": (["ingest", "--data", str(SP500)], ["ingested.csv"], 0),
    "ingest lenient": (["ingest", "--data", DIRTY, "--lenient"], ["ingested.csv"], 0),
    "ingest lenient plain": (["ingest", "--data", PLAIN_DIRTY, "--lenient"], ["ingested.csv"], 0),
    "ingest nul strict": (["ingest", "--data", NUL, "--strict"], [], 2),
    "ingest nul lenient": (["ingest", "--data", NUL, "--lenient"], [], 2),
    "ingest exact volumes": (["ingest", "--data", EXACT], ["ingested.csv"], 0),
    "report": (["report", "--data", str(SP500)], ["report.json"], 0),
    "report benchmark": (["report", "--data", str(DATA / "v_fixture.csv"),
                          "--benchmark", str(DATA / "v_fixture.csv")], ["report.json"], 0),
    "kelly": (["kelly", "--p", "0.55", "--l-gain", "1.2", "--m-loss", "1.0"],
              ["kelly_curve.csv", "kelly.json"], 0),
    "indicators": (["indicators", "--data", str(SP500), "--indicator", "sma50=sma 50",
                    "--indicator", "ema20=ema 20", "--indicator", "rsi14=rsi 14",
                    "--indicator", "rmi14=rmi 14 4", "--indicator", "kama=ama 30 2 10 1"],
                   ["indicators.csv"], 0),
    "indicators ama 2": (["indicators", "--data", str(SP500), "--indicator", "ama2=ama 30 2 10 2"],
                         ["indicators.csv"], 0),
}

PINNED = {
    "sma 20": "63e1e45407269b41b8af71e9f28155e7dae5f7a681500407b222b6471c93ff0b",
    "rolling_std 20": "88ae581a1434289b48a3290deaa073b7fdb45572e51d3fdad1de26114c0dfec5",
    "aroon 25": "7588de081e4576b82fcdbbc6250ac8f2fe259ec377ecc18502bf741e1a3bec46",
    "ema 20": "94044ab14945004503f46d0c6eaaa58e098960256aa51945ebff96497b6aff6e",
    "ama 30 2 10 1": "ba95d507e54d9aa8e741b81596b1f755e8325b41e954baa6507900c5689fd21e",
    "ama 30 2 10 2": "4541b1d90aa3624c483389ea4b00f974c33eb12f512c9c7814b2cbce609c7644",
    "ama 51 5 12 2": "37ce403e7cd61e8af5b3f0d357b3d832fe4f2f49ec06794444e2b2c1b5342876",
    "efficiency_ratio 50": "49d05b5e8140e5a1b315034785717d9afd20228e17e2a5d1467ef372469e8589",
    "bollinger 20 2.0": "819c636a0a44ba6e876a7356db812eece0c09401dba2b2ecac917eb04cf8bd1d",
    "bollinger ama 24 8 18 1 2.6":
        "988e66e7d45ef57ce13c872959a9ece616c0401752153e21372ef2a45eb7f17d",
    "keltner ema 20 2.0": "6d84ea53757433db3ffd049f9aa2e6f86716f9ad6ab857c4824ca0cd300a86d0",
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
    "v_fixture stdout": "a647e9530af6ce7acc235245ad42f06fd272eba7e60f6f06b827c88311363322",
    # the bytes of tests/data/v_golden_report.json
    "v_fixture report.json": "b3f1701e9e568e3880bec117358ec964852869efc94c7ec3c255f666bd3a46f5",
    "v_fixture equity.csv": "8dc243fbce7ee8b2715c5fb55256ac94b6ece921274015286daf5e306a4a3437",
    "v_fixture signals.csv": "c6b2d47e9f42df073697dd4983e9db49ffb9b0b085efee5d8f411008a1b6a515",
    "ingest stdout": "6e5764ffe84f6a05cd0ba115b01f923621d16e8ed5fe36306d75d2e2336fbb66",
    "ingest ingested.csv": "0f289b959d357cdc74c7d1fa1cf31ea781204582f91000e3c711f03a4dce858d",
    "ingest lenient stdout": "b8318d7204b28688a5db2a59e8cf03f75cdb30c62e5ba2822302560f59e0644e",
    "ingest lenient ingested.csv":
        "da3eb1fe64e7d8212493c3c4d046ec304c2c02cf6d2d649cd34d42c4453591b6",
    "ingest lenient plain stdout": "6c1c17c29f5e1969aa6949fafa7e00d3bd6944618f21d5a8b63b99b2f3909d2d",
    "ingest lenient plain ingested.csv":
        "19bfc819588b7a0036c1c100bab1d9d52afd17ba2d8f4c4f83a69ddf1751d23a",
    # the bytes of Python 3.10, whose fromisoformat and csv refuse these rows themselves
    "ingest nul strict stdout": "16d5896d297836a7db6f9c42c8d9d734eab4d58dc7e1d0ca8e86b5816e1f7727",
    "ingest nul lenient stdout": "f19cb277f8ce67f2e08314ca9e487abb03a9405adf1864284f5bcd61761f3249",
    # the volumes 10000000000000000001 and 9007199254740993 written back whole
    "ingest exact volumes stdout":
        "bf1bc2f44c01d07b946cf9d12140f1469ec6263716f76c833f6e9005dbadbd16",
    "ingest exact volumes ingested.csv":
        "aac877ad66bc0852c28ac06f96e0cc9d19c850e6b31a31da93e5972655bf8c98",
    "report stdout": "9030a360f8f7a19f82696158307fe748e0583b0a8cbce6fd24435f6809ca92c8",
    "report report.json": "19b41b57e4fa70ac5a76a27d8a48a18357724483c404eb75d4de16602d4d714c",
    "report benchmark stdout": "b9e54e8390a9982d12fb65b00f019a48d4f5242eaf3608c5b5d8bed8784778d9",
    "report benchmark report.json":
        "9b4f2f70b7ed48d2e8952701122abed08805cbb3b948ca51db66720bb2d6eec0",
    "kelly stdout": "3bb0584134d694461f62f74ff010ce61a392e896a5e181d9cae673f7ee94add8",
    "kelly kelly_curve.csv": "5aa3990b39f8d5e74425c29ac822eadaccabe700edf450d9370a7bea7be932f0",
    "kelly kelly.json": "3afa542339a26357e872378d905c567146a15977d8dd11b420d7f3865acd3ba9",
    "indicators stdout": "cb89b280618b05688fd153d64010d0622924406499f47e0f2aa8bf8c6fa4eb5c",
    "indicators indicators.csv":
        "ff7f0cb953118fb0c2415f598b2d3d8ddefd744535415174f2f05e1ff626dae3",
    "indicators ama 2 stdout": "25e63bdb42ba4b42bf95f82bef95881ebc3c22a763a49fe480d40a5cbd00ab0e",
    "indicators ama 2 indicators.csv":
        "d6272703911cb7d4981698e2f4d386e656799d21e8ce0742c9761045c16028ec",
    "two_average sweep stdout": "910eadbe7f2f02fc006781a4fd2a968fc9b1b3f1a1ebb1848b92c2b210430835",
    "two_average sweep.csv": "253f2dc78844ce0f71e5aefff7db324879f045257eb122d24e34d44cc65d2cd7",
    "keltner sweep stdout": "cafcd9a8c27f79a5ada95c240fee620296ca39488a181f66f4b042ae789f5181",
    "keltner sweep.csv": "8ce480e928d4d2e7a7796ff3b737c2ab7570818a441fe4fd5ec5bb3439e950e0",
    "bollinger sweep stdout": "adfa470506c068c65cac32c0c050f55dc26d963e27716a554eb551f1b2a2415e",
    "bollinger sweep.csv": "a6c23a5adece2a062a89a86e7c25358c2edd3e9d6b8b800c0a352db9a61a6c5f",
    "rsi sweep stdout": "ee278e41f070ae1be32a8887cb6c38e573d017a5ff3678ee9daea05ec3d90432",
    "rsi sweep.csv": "1e5d631d8e51d26fff27666e3d08a4f8dcefefadf58fed234ae6eef7f1bec43a",
    "aroon sweep stdout": "7579962e85eebc5070bfe514278882405e33a051a4b9cd99349cc85845db1bf2",
    "aroon sweep.csv": "a9f2f6e1c75b3669a0e5504a087436388e8b373ca382ea8f98020a02760a5b63",
    "macd sweep stdout": "b93c93a7e7863bc79f9a65a7efbf7902b302f28fff20e26fce6f9732d744ac13",
    "macd sweep.csv": "5614863a12309d86de68728b790998f0956dfd469d71dd12f8f0158008eb8681",
    "price_cross sweep stdout": "7fab2aafc2d0a087c54cc8cd7b81e80e818226992cd63ee227b6cf77bdb65703",
    "price_cross sweep.csv": "1debaf5b7b9001d963b86d40b24e27201f18b7cfff0c62081a40fedf5d1e9660",
}


def _bands(band_set) -> list[float]:
    """The middle, upper and lower values, warm-up bars included."""
    return [v for line in (band_set.middle, band_set.upper, band_set.lower) for v in line.values]


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
        "ama 30 2 10 2": ama(closes, AmaParams(30, 2, 10, 2)).values,
        "ama 51 5 12 2": ama(closes, AmaParams(51, 5, 12, 2)).values,
        "efficiency_ratio 50": efficiency_ratio(closes, 50).values,
        "bollinger 20 2.0": _bands(bollinger(series, 20, 2.0)),
        "bollinger ama 24 8 18 1 2.6": _bands(bollinger(series, AmaParams(24, 8, 18, 1), 2.6)),
        "keltner ema 20 2.0": _bands(keltner(series, MaSpec("ema", 20), 2.0)),
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
    """sha256 of the stdout and every artifact of each of ``CLI_RUNS``, and
    of the stdout and ``sweep.csv`` of each sweep."""
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        inputs = {DIRTY: (out / "dirty.csv", DIRTY_CSV), NUL: (out / "nul.csv", NUL_CSV),
                  PLAIN_DIRTY: (out / "plain_dirty.csv", PLAIN_DIRTY_CSV),
                  EXACT: (out / "exact.csv", EXACT_CSV)}
        for path, text in inputs.values():
            path.write_text(text, encoding="utf-8")
        for name, (argv, artifacts, exit_code) in CLI_RUNS.items():
            argv = [str(inputs[arg][0]) if arg in inputs else arg for arg in argv]
            with redirect_stdout(io.StringIO()) as stdout:
                code = main(argv + ["--out-dir", str(out / name)])
            assert code == exit_code, f"{name} exited {code}, not {exit_code}"
            digests[f"{name} stdout"] = _sha(stdout.getvalue().encode("utf-8"))
            for artifact in artifacts:
                digests[f"{name} {artifact}"] = _sha((out / name / artifact).read_bytes())
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
