import argparse
import datetime as dt
import hashlib
import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import DATA_DIR
from tabacktest import _exact, cli, indicators, market_data
from tabacktest.cli import build_parser, main
from tabacktest.config import SweepSpec
from test_config import VALUE_ERRORS
from test_kernel_digests import PINNED, SWEEPS

V_FIXTURE = DATA_DIR / "v_fixture.csv"
V_CONFIG = DATA_DIR / "v_strategy.cfg"
V_GOLDEN = DATA_DIR / "v_golden_report.json"
README = DATA_DIR.parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestBacktestCommand:
    def test_buy_and_hold_rr_on_fixture(self, tmp_path, capsys):
        # a crossover config that buys once after the trough and holds
        config = tmp_path / "strategy.cfg"
        config.write_text("strategy = two_average\nfast.kind = sma\nfast.period = 2\n"
                          "slow.kind = sma\nslow.period = 5\n")
        code, out = run_cli(
            capsys, "backtest", "--data", str(V_FIXTURE), "--config", str(config),
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        # single open trade: final price equals last close, rr = last/entry
        assert report["buy_count"] == 1
        assert report["final_price"] == pytest.approx(101.0, rel=1e-12)

    def test_report_matches_golden_bytes(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "backtest", "--data", str(V_FIXTURE), "--config", str(V_CONFIG),
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "report.json").read_bytes() == V_GOLDEN.read_bytes()
        signals = (tmp_path / "signals.csv").read_text().splitlines()
        assert signals[0] == "bar_index,action"
        assert signals[1] == "41,Buy"
        equity = (tmp_path / "equity.csv").read_text().splitlines()
        assert equity[0] == "bar_index,equity,close"
        assert len(equity) == 81

    def test_missing_file_error_json(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "backtest", "--data", str(tmp_path / "nope.csv"),
            "--config", str(V_CONFIG), "--out-dir", str(tmp_path),
        )
        assert code == 2
        payload = json.loads(out)
        assert payload["error"]["kind"] == "MissingInput"

    def test_domain_error_exit_code(self, tmp_path, capsys):
        short = tmp_path / "short.csv"
        rows = ["date,open,high,low,close,volume"]
        day = dt.date(2021, 1, 4)
        for i in range(30):
            while day.weekday() >= 5:
                day += dt.timedelta(days=1)
            c = 10.0 + i
            rows.append(f"{day.isoformat()},{c},{c + 0.5},{c - 0.5},{c},100")
            day += dt.timedelta(days=1)
        short.write_text("\n".join(rows) + "\n")
        config = tmp_path / "strategy.cfg"
        config.write_text("strategy = rsi\nrsi.n = 6\n")
        code, out = run_cli(
            capsys, "backtest", "--data", str(short), "--config", str(config),
            "--out-dir", str(tmp_path),
        )
        assert code == 3  # 30 bars is shorter than the bar-60 scan window needs
        assert json.loads(out)["error"]["kind"] == "TooShort"

    def test_overflowing_yearly_rate_is_a_domain_error(self, tmp_path, capsys):
        # rr_whole ** (1 / years) overflows when 80 bars are a tiny fraction of a year
        code, out = run_cli(
            capsys, "backtest", "--data", str(V_FIXTURE), "--config", str(V_CONFIG),
            "--trading-days", "1000000", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "DomainError"

    @pytest.mark.parametrize("line", ["objective = bogus", "min_trades = 1,2",
                                      "min_trades = -3", "min_trades = true"])
    def test_sweep_keys_are_checked_as_in_a_sweep(self, tmp_path, line):
        config = tmp_path / "strategy.cfg"
        config.write_text(V_CONFIG.read_text() + line + "\n")
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(["backtest", "--data", str(V_FIXTURE), "--config", str(config),
                         "--out-dir", str(tmp_path / "out")])
        assert code == 2
        lines = stdout.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "ConfigError"
        assert stderr.getvalue() == ""
        assert not (tmp_path / "out").exists()

    def test_benchmark_path(self, tmp_path, capsys):
        code, _ = run_cli(
            capsys, "backtest", "--data", str(V_FIXTURE), "--config", str(V_CONFIG),
            "--benchmark", str(V_FIXTURE), "--out-dir", str(tmp_path),
        )
        assert code == 0


class TestIngestCommand:
    def test_normalizes_and_reports(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "ingest", "--data", str(V_FIXTURE), "--out-dir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["bars"] == 80
        assert summary["warnings"] == 0
        assert (summary["first_date"], summary["last_date"]) == ("2021-01-04", "2021-04-23")
        assert (tmp_path / "ingested.csv").read_bytes() == V_FIXTURE.read_bytes()

    def test_lenient_flag(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,10.0,11.0,9.5,12.0,100\n"
            "2021-01-05,10.0,11.0,9.5,10.5,100\n"
        )
        code, out = run_cli(
            capsys, "ingest", "--data", str(bad), "--lenient", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert json.loads(out)["warnings"] == 1
        code, out = run_cli(
            capsys, "ingest", "--data", str(bad), "--out-dir", str(tmp_path),
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "InvariantViolation"

    def test_an_integer_volume_round_trips_exactly(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("date,open,high,low,close,volume\n"
                        f"2021-01-04,10.0,11.0,9.5,10.5,{10**19 + 1}\n")
        code, _ = run_cli(capsys, "ingest", "--data", str(data), "--out-dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "ingested.csv").read_text() == data.read_text()


class TestIndicatorsCommand:
    def test_column_schema(self, tmp_path, capsys):
        config = tmp_path / "ind.cfg"
        config.write_text(
            "indicator.sma50 = sma 50\nindicator.ema50 = ema 50\n"
            "indicator.kama = ama 51 5 12 2\n"
        )
        code, _ = run_cli(
            capsys, "indicators", "--data", str(DATA_DIR / "regime_fixture.csv"),
            "--config", str(config), "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "indicators.csv").read_text().splitlines()
        assert lines[0] == "index,close,sma50,ema50,kama"
        assert len(lines[1].split(",")) == 5

    def test_constant_series_columns_equal_close(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        rows = ["date,open,high,low,close,volume"]
        import datetime as dt
        day = dt.date(2021, 1, 4)
        for _ in range(120):
            while day.weekday() >= 5:
                day += dt.timedelta(days=1)
            rows.append(f"{day.isoformat()},5.0,5.0,5.0,5.0,100")
            day += dt.timedelta(days=1)
        flat.write_text("\n".join(rows) + "\n")
        code, _ = run_cli(
            capsys, "indicators", "--data", str(flat),
            "--indicator", "sma10=sma 10", "--indicator", "kama=ama 20 4 8 2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        for line in (tmp_path / "indicators.csv").read_text().splitlines()[1:]:
            _, close, sma10, kama = line.split(",")
            assert close == sma10 == kama == "5.0"

    def test_a_name_that_breaks_the_header_exits_2(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "indicators", "--data", str(V_FIXTURE),
            "--indicator", "a,b=sma 5", "--out-dir", str(tmp_path / "out"),
        )
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "ConfigError"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("config, flags", [
        ("indicator.a = sma 5\nindicator.a.b = sma 5\n", []),
        ("indicator.a.b = sma 5\n", ["a=sma 5"]),
        ("indicator = 5\n", ["a=sma 5"]),
    ], ids=["column then table", "table then column", "scalar section"])
    def test_a_name_that_is_both_a_column_and_a_table_exits_2(
            self, config, flags, tmp_path, capsys):
        argv = ["indicators", "--data", str(V_FIXTURE), "--out-dir", str(tmp_path / "out")]
        if config is not None:
            (tmp_path / "ind.cfg").write_text(config)
            argv += ["--config", str(tmp_path / "ind.cfg")]
        for flag in flags:
            argv += ["--indicator", flag]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"]["kind"] == "ConfigError"
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag, message", [
        ("bad", "--indicator expects NAME=SPEC, got 'bad'"),
        ("a.b=sma 5", "--indicator NAME must not contain '.', got 'a.b'"),
        (" x.y = ema 3", "--indicator NAME must not contain '.', got 'x.y'"),
    ])
    def test_a_malformed_flag_is_an_invalid_argument(self, flag, message, tmp_path, capsys):
        code = main(["indicators", "--data", str(V_FIXTURE), "--indicator", "a=sma 5",
                     "--indicator", flag, "--out-dir", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 2
        lines = captured.out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {"error": {"kind": "InvalidArgument", "message": message}}
        assert captured.err == ""
        assert not (tmp_path / "out").exists()

    def test_a_dump_converts_its_closes_once(self, tmp_path, capsys, monkeypatch):
        # every column reads the series' one set of prefix sums
        calls = []

        def counting(values):
            calls.append(len(values))
            return original(values)

        original = _exact.prefix_sums
        monkeypatch.setattr(indicators, "prefix_sums", counting)
        monkeypatch.setattr(market_data, "prefix_sums", counting)
        code, _ = run_cli(
            capsys, "indicators", "--data", str(DATA_DIR / "synthetic_sp500.csv"),
            "--indicator", "a=sma 50", "--indicator", "b=sma 20",
            "--indicator", "c=ama 30 2 10 1", "--indicator", "d=ama 30 2 10 2",
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert len(calls) == 1

    def test_a_spec_named_twice_is_computed_once(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counting(data, n):
            calls.append(n)
            return original(data, n)

        original = indicators.sma
        monkeypatch.setattr(indicators, "sma", counting)
        code, _ = run_cli(
            capsys, "indicators", "--data", str(V_FIXTURE),
            "--indicator", "a=sma 5", "--indicator", "b=sma 5", "--out-dir", str(tmp_path),
        )
        assert code == 0
        assert calls == [5]
        rows = [line.split(",") for line in (tmp_path / "indicators.csv").read_text().splitlines()]
        assert rows[0] == ["index", "close", "a", "b"]
        assert all(a == b for _, _, a, b in rows[1:])

    def test_dump_round_trip_is_idempotent(self, tmp_path, capsys):
        config = tmp_path / "ind.cfg"
        config.write_text("indicator.sma5 = sma 5\n")
        first = tmp_path / "first"
        second = tmp_path / "second"
        for out in (first, second):
            code, _ = run_cli(
                capsys, "indicators", "--data", str(V_FIXTURE),
                "--config", str(config), "--out-dir", str(out),
            )
            assert code == 0
        assert (first / "indicators.csv").read_bytes() == (second / "indicators.csv").read_bytes()
        # re-read the dump and re-feed the closes: values survive untouched
        from tabacktest.indicators import sma

        rows = (first / "indicators.csv").read_text().splitlines()[1:]
        closes = [float(line.split(",")[1]) for line in rows]
        dumped = [float(line.split(",")[2]) for line in rows]
        assert sma(closes, 5).values == dumped


class TestSweepCommand:
    def test_sweep_table(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "strategy = two_average\nmin_trades = 0\n"
            "fast.kind = sma\nfast.period = 2,3,4\n"
            "slow.kind = sma\nslow.period = 10\n"
        )
        code, out = run_cli(
            capsys, "sweep", "--data", str(DATA_DIR / "regime_fixture.csv"),
            "--config", str(config), "--out-dir", str(tmp_path),
        )
        assert code == 0
        lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 4  # header + 3 cells
        summary = json.loads(out)
        assert summary["grid_size"] == 3
        assert summary["cells_ranked"] == 3
        assert summary["dropped_by_kind"] == {}
        assert summary["below_min_trades"] == 0

    def test_sweep_reports_drops(self, tmp_path, capsys):
        # the 600-bar windows are longer than the 510-bar series, and
        # 2/2 never crosses, so it has no trade
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "strategy = two_average\nobjective = rr_whole\nmin_trades = 1\n"
            "fast.kind = sma\nfast.period = 2,3\n"
            "slow.kind = sma\nslow.period = 2,10,600\n"
        )
        code, out = run_cli(
            capsys, "sweep", "--data", str(DATA_DIR / "regime_fixture.csv"),
            "--config", str(config), "--out-dir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["dropped_by_kind"] == {"TooShort": 2}
        assert summary["below_min_trades"] == 1
        assert summary["cells_ranked"] == 3

    def test_bad_cell_values_drop_cells(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text("strategy = rsi\nrsi.n = 2,abc\nrsi.diff_rate = 0.05\n")
        code, out = run_cli(
            capsys, "sweep", "--data", str(DATA_DIR / "synthetic_sp500.csv"),
            "--config", str(config), "--out-dir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["dropped_by_kind"] == {"ConfigError": 1}
        assert summary["cells_ranked"] == 1

    def test_overflowing_cells_are_dropped_as_domain_errors(self, tmp_path, capsys):
        # a yearly rate from a gain over a tiny fraction of a year overflows
        config = tmp_path / "sweep.cfg"
        config.write_text("strategy = two_average\nfast.kind = sma\nfast.period = 2,3\n"
                          "slow.kind = sma\nslow.period = 10\n")
        code, out = run_cli(
            capsys, "sweep", "--data", str(DATA_DIR / "regime_fixture.csv"),
            "--config", str(config), "--trading-days", "1000000", "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert "'DomainError': 2" in json.loads(out)["error"]["message"]

    def test_empty_grid_after_filter(self, tmp_path, capsys):
        config = tmp_path / "sweep.cfg"
        config.write_text(
            "strategy = two_average\nmin_trades = 99\n"
            "fast.kind = sma\nfast.period = 2,3\n"
            "slow.kind = sma\nslow.period = 10\n"
        )
        code, out = run_cli(
            capsys, "sweep", "--data", str(DATA_DIR / "regime_fixture.csv"),
            "--config", str(config), "--out-dir", str(tmp_path),
        )
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "EmptyGridAfterFilter"


NOT_UTF8 = "<a file holding the byte 0xff>"
LONG_FIELD = "<a one-row CSV whose open cell has 200,000 digits>"
# config values of the wrong type, each in an otherwise valid config
BAD_VALUES = {
    "<rsi.n = abc>": "strategy = rsi\nrsi.n = abc\n",
    "<keltner.mult = x>": "strategy = keltner\nma.kind = ema\nma.period = 5\nkeltner.mult = x\n",
    "<keltner.mult = inf>": "strategy = keltner\nma.kind = ema\nma.period = 5\nkeltner.mult = inf\n",
    "<keltner.mult = nan>": "strategy = keltner\nma.kind = ema\nma.period = 5\nkeltner.mult = nan\n",
    "<ma.smoothing = abc>": "strategy = price_cross\nma.kind = ema\nma.period = 5\nma.smoothing = abc\n",
    "<fast.period = 2.7>": "strategy = two_average\nfast.kind = sma\nfast.period = 2.7\n"
                           "slow.kind = sma\nslow.period = 5\n",
    "<aroon.n = true>": "strategy = aroon\naroon.n = true\n",
}
# a sweep axis on a key no cell reads: every cell would be the default-mult cell
UNREAD_AXIS = "<a keltner sweep with a top-level mult axis>"
UNREAD_AXIS_TEXT = "strategy = keltner\nma.kind = ema\nma.period = 5\nmult = 0:3:0.5\n"
# a key no rsi config has: every cell would fail, so the sweep fails before any runs
UNKNOWN_SWEEP_KEY = "<an rsi sweep with an rsi.bogus key>"
UNKNOWN_SWEEP_KEY_TEXT = "strategy = rsi\nrsi.n = 5,6\nrsi.bogus = 1\n"
# shapes no axis value can fix: every cell would fail, so the sweep fails before any runs
PLAIN_BOLLINGER_MA = "<a bollinger sweep over a plain ma.*>"
NO_SLOW_SECTION = "<a two_average sweep with no slow.*>"
SHAPE_TEXTS = {
    PLAIN_BOLLINGER_MA: "strategy = bollinger\nma.kind = sma\nma.period = 5,10\n",
    NO_SLOW_SECTION: "strategy = two_average\nfast.kind = sma\nfast.period = 5,10\n",
}


@pytest.mark.parametrize("flags, kind", [
    (["--trading-days", "0"], "InvalidArgument"),
    (["--trading-days", "-3"], "InvalidArgument"),
    (["--data", str(DATA_DIR)], "PathError"),
    (["--benchmark", str(DATA_DIR)], "PathError"),
    (["--data", NOT_UTF8], "UndecodableInput"),
    (["--benchmark", NOT_UTF8], "UndecodableInput"),
    (["--config", NOT_UTF8], "UndecodableInput"),
    (["--data", LONG_FIELD], "UnparsableRow"),
    (["--data", LONG_FIELD, "--lenient"], "UnparsableRow"),
    *((["--config", placeholder], "ConfigError") for placeholder in BAD_VALUES),
    (["--out-dir", str(V_FIXTURE)], "PathError"),
    # from here on, whole command lines
    (["sweep", "--data", str(V_FIXTURE), "--config", UNREAD_AXIS], "ConfigError"),
    (["sweep", "--data", str(V_FIXTURE), "--config", str(V_CONFIG), "--trading-days", "x"],
     "InvalidArgument"),
    (["kelly", "--p", "0.5", "--l-gain", "2", "--m-loss", "-inf"], "InvalidArgument"),
    (["kelly", "--p", "0.5"], "InvalidArgument"),
    (["backtest", "--config", str(V_CONFIG)], "InvalidArgument"),
    (["frobnicate", "--data", str(V_FIXTURE)], "InvalidArgument"),
    (["sweep", "--data", str(V_FIXTURE), "--config", UNKNOWN_SWEEP_KEY], "ConfigError"),
    (["sweep", "--data", str(V_FIXTURE), "--config", PLAIN_BOLLINGER_MA], "ConfigError"),
    (["sweep", "--data", str(V_FIXTURE), "--config", NO_SLOW_SECTION], "ConfigError"),
])
def test_bad_arguments_exit_2_with_one_json_line(flags, kind, tmp_path, capsys):
    not_utf8 = tmp_path / "latin1.txt"
    not_utf8.write_bytes(V_FIXTURE.read_bytes().replace(b"2021-01-05", b"2021-01-05\xff"))
    long_field = tmp_path / "long_field.csv"
    long_field.write_text(
        "date,open,high,low,close,volume\n2021-01-04," + "1" * 200_000 + ",2,1,1,10\n"
    )
    paths = {NOT_UTF8: str(not_utf8), LONG_FIELD: str(long_field)}
    configs = {**BAD_VALUES, UNREAD_AXIS: UNREAD_AXIS_TEXT,
               UNKNOWN_SWEEP_KEY: UNKNOWN_SWEEP_KEY_TEXT, **SHAPE_TEXTS}
    for number, (placeholder, text) in enumerate(configs.items()):
        paths[placeholder] = str(tmp_path / f"bad_value_{number}.cfg")
        (tmp_path / f"bad_value_{number}.cfg").write_text(text)
    flags = [paths.get(flag, flag) for flag in flags]
    out_dir = ["--out-dir", str(tmp_path)]
    if flags[0].startswith("--"):
        argv = ["backtest", "--data", str(V_FIXTURE), "--config", str(V_CONFIG)] + out_dir + flags
    else:
        argv = flags + out_dir
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == kind
    assert captured.err == ""


@pytest.mark.parametrize("text, message", VALUE_ERRORS)
def test_a_bad_config_value_exits_2_naming_its_line(text, message, tmp_path, capsys):
    config = tmp_path / "bad.cfg"
    config.write_text(text)
    code = main(["backtest", "--data", str(V_FIXTURE), "--config", str(config),
                 "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0]) == {"error": {"kind": "ConfigError", "message": message}}
    assert captured.err == ""


# the flags of each command: the data group is --data, --strict/--lenient and --use-adjusted
DATA_DESTS = {"data", "mode", "use_adjusted"}
COMMAND_DESTS = {
    "ingest": DATA_DESTS | {"out_dir"},
    "indicators": DATA_DESTS | {"config", "indicator", "out_dir"},
    "backtest": DATA_DESTS | {"config", "trading_days", "benchmark", "out_dir"},
    "sweep": DATA_DESTS | {"config", "trading_days", "benchmark", "out_dir"},
    "report": DATA_DESTS | {"trading_days", "benchmark", "out_dir"},
    "kelly": {"p", "l_gain", "m_loss", "grid_points", "out_dir"},
}
# a valid command line of each command, and flags it once took but never read
COMMAND_LINES = {
    "ingest": ["ingest", "--data", str(V_FIXTURE)],
    "indicators": ["indicators", "--data", str(V_FIXTURE), "--indicator", "sma5=sma 5"],
    "sweep": ["sweep", "--data", str(V_FIXTURE), "--config", str(V_CONFIG)],
    "report": ["report", "--data", str(V_FIXTURE)],
    "kelly": ["kelly", "--p", "0.55", "--l-gain", "1.2"],
}
UNREAD_FLAGS = [
    ("ingest", ["--config", "/nonexistent.cfg"]),
    ("ingest", ["--trading-days", "0"]),
    ("indicators", ["--trading-days", "252"]),
    ("sweep", ["--jobs", "0"]),
    ("sweep", ["--jobs", "-3"]),
    ("sweep", ["--jobs", "2"]),
    ("report", ["--config", "/nonexistent.cfg"]),
    ("kelly", ["--config", "/nonexistent.cfg"]),
    ("kelly", ["--trading-days", "252"]),
]


def _subcommands():
    return next(action for action in build_parser()._actions
                if isinstance(action, argparse._SubParsersAction)).choices


def test_each_command_declares_only_the_flags_it_reads():
    assert {name: {action.dest for action in command._actions if action.dest != "help"}
            for name, command in _subcommands().items()} == COMMAND_DESTS


def test_the_readme_synopsis_names_each_command_and_flag_of_the_parser():
    block = re.search(r"## CLI\n\n```\n(.*?)```", README.read_text(encoding="utf-8"), re.S)[1]
    data = re.search(r"^DATA = (.*)$", block, re.M)[1]
    synopsis = {}
    for line in re.findall(r"^tabacktest .*$", block, re.M):
        _, name, usage = line.split(None, 2)
        synopsis[name] = set(re.findall(r"--[a-z-]+", re.sub(r"\bDATA\b", data, usage)))
    assert synopsis == {
        name: {flag for action in command._actions for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"}
        for name, command in _subcommands().items()}


def test_main_looks_up_each_command_when_it_runs(tmp_path, capsys, monkeypatch):
    # a rebinding of cli.cmd_kelly, as the benchmark's span tracer makes, is what runs
    calls = []

    def spy(args):
        calls.append(args.command)
        return {"spied": True}

    monkeypatch.setattr(cli, "cmd_kelly", spy)
    code = main(["kelly", "--p", "0.6", "--l-gain", "2", "--out-dir", str(tmp_path)])
    assert (code, calls) == (0, ["kelly"])
    assert json.loads(capsys.readouterr().out) == {"command": "kelly", "spied": True}
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, flags", UNREAD_FLAGS,
                         ids=[" ".join([command, *flags]) for command, flags in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_exits_2(command, flags, tmp_path, capsys):
    code = main(COMMAND_LINES[command] + flags + ["--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == "InvalidArgument"
    assert captured.err == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: tabacktest")


class TestKellyCommand:
    def test_optimum_and_curve(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "kelly", "--p", "0.9", "--l-gain", "1.1", "--m-loss", "1.0",
            "--grid-points", "101", "--out-dir", str(tmp_path),
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["optimal_fraction"] == pytest.approx(0.8090909090909091)
        curve = (tmp_path / "kelly_curve.csv").read_text().splitlines()
        assert curve[0] == "x,expected_log_return"
        assert len(curve) == 102


    @pytest.mark.parametrize("flags", [
        ["--p", "0.6", "--l-gain", "inf"],
        ["--p", "0.6", "--l-gain", "nan"],
        ["--p", "inf", "--l-gain", "2"],
        ["--p", "0.6", "--l-gain", "2", "--m-loss", "nan"],
        ["--p", "0.5", "--l-gain", "1e-308", "--m-loss", "1e-308"],
    ])
    def test_non_finite_inputs_are_invalid_params(self, flags, tmp_path, capsys):
        code, out = run_cli(capsys, "kelly", *flags, "--out-dir", str(tmp_path))
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "InvalidParams"
        assert not (tmp_path / "kelly_curve.csv").exists()

    def test_more_grid_points_than_a_grid_holds_are_invalid_params(self, tmp_path, capsys):
        code, out = run_cli(capsys, "kelly", "--p", "0.6", "--l-gain", "2",
                            "--grid-points", "100001", "--out-dir", str(tmp_path))
        assert code == 3
        assert json.loads(out)["error"] == {"kind": "InvalidParams",
                                            "message": "grid_points must be <= 100000"}
        assert not (tmp_path / "kelly_curve.csv").exists()


class TestReportCommand:
    def test_series_self_report(self, tmp_path, capsys):
        code, out = run_cli(
            capsys, "report", "--data", str(DATA_DIR / "synthetic_sp500.csv"),
            "--out-dir", str(tmp_path),
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["buy_count"] == 0
        assert report["ir"] is None  # benchmark is the series itself
        assert len(report["rr_by_year"]) == 11
        assert report["return_fit_std"] == pytest.approx(1.08e-2, rel=0.1)


    def test_non_finite_measures_are_a_domain_error(self, tmp_path, capsys):
        # a close ratio of 1e600 overflows to inf, and the report's moments with it
        data = tmp_path / "extreme.csv"
        data.write_text("date,open,high,low,close,volume\n"
                        "2021-01-04,1e-300,1e-300,1e-300,1e-300,1\n"
                        "2021-01-05,1e300,1e300,1e300,1e300,1\n"
                        "2021-01-06,1e300,1e300,1e300,1e300,1\n")
        code, out = run_cli(capsys, "report", "--data", str(data), "--out-dir", str(tmp_path / "out"))
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "DomainError"
        assert not (tmp_path / "out" / "report.json").exists()


def _write_closes(path, closes):
    """A daily-bar CSV whose bars all sit at their close."""
    lines = ["date,open,high,low,close,volume"]
    day = dt.date(2021, 1, 4)
    for close in closes:
        while day.weekday() >= 5:
            day += dt.timedelta(days=1)
        lines.append(f"{day.isoformat()},{close!r},{close!r},{close!r},{close!r},100")
        day += dt.timedelta(days=1)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("command, config, kind", [
    ("backtest", "fast.period = 3\n", "DomainError"),
    ("sweep", "fast.period = 3,5\n", "EmptyGridAfterFilter"),
    ("report", None, "DomainError"),
], ids=["backtest", "sweep", "report"])
def test_a_benchmark_return_that_overflows_exits_3_before_any_artifact(
        command, config, kind, tmp_path, capsys):
    # every benchmark close is positive and finite, but 1e300 / 1e-300 is not
    data, benchmark = tmp_path / "series.csv", tmp_path / "benchmark.csv"
    _write_closes(data, [100.0 + 10.0 * math.sin(i / 7.0) + 0.05 * i for i in range(300)])
    _write_closes(benchmark, [1e-300] + [1e300 * (1.0 + 0.001 * (i % 5)) for i in range(299)])
    argv = [command, "--data", str(data), "--benchmark", str(benchmark),
            "--out-dir", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "strategy.cfg").write_text(
            "strategy = two_average\nfast.kind = sma\nslow.kind = sma\nslow.period = 20\n"
            + config)
        argv += ["--config", str(tmp_path / "strategy.cfg")]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 3
    lines = captured.out.splitlines()
    assert len(lines) == 1
    error = json.loads(lines[0])["error"]
    assert error["kind"] == kind
    if command == "sweep":
        assert "{'DomainError': 2}" in error["message"]
    assert not (tmp_path / "out").exists()


def _refusal(argv, tmp_path, capsys):
    """The exit code and the error of a command line that fails: one JSON
    line on stdout, nothing on stderr and no output directory."""
    code = main(argv + ["--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert captured.err == ""
    assert not (tmp_path / "out").exists()
    return code, json.loads(lines[0])["error"]


@pytest.mark.parametrize("command, config, flags, message", [
    ("backtest", "strategy = rsi\nrsi.n = 5\nrsi.n = 9\n", [], "line 3: 'rsi.n' is set twice"),
    ("indicators", None, ["a=sma 5", "a=ema 3"], "'indicator.a' is set twice"),
    ("indicators", "indicator.a = sma 5\n", ["a=ema 3"], "'indicator.a' is set twice"),
], ids=["config line", "repeated flag", "flag repeats a config column"])
def test_a_key_set_twice_exits_2(command, config, flags, message, tmp_path, capsys):
    # the later value does not replace the earlier one in silence
    argv = [command, "--data", str(V_FIXTURE)]
    if config is not None:
        (tmp_path / "x.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "x.cfg")]
    for flag in flags:
        argv += ["--indicator", flag]
    assert _refusal(argv, tmp_path, capsys) == (2, {"kind": "ConfigError", "message": message})


def test_a_grid_above_the_limit_exits_2_before_any_cell(tmp_path, capsys, monkeypatch):
    def no_cell(self, assignment):
        raise AssertionError("a cell was built")

    monkeypatch.setattr(SweepSpec, "cell_config", no_cell)
    (tmp_path / "x.cfg").write_text("strategy = two_average\nfast.kind = sma\n"
                                    "fast.period = 1:400:1\nslow.kind = sma\n"
                                    "slow.period = 1:400:1\n")
    argv = ["sweep", "--data", str(V_FIXTURE), "--config", str(tmp_path / "x.cfg")]
    message = "sweep grid has 160000 cells, more than 100000"
    assert _refusal(argv, tmp_path, capsys) == (2, {"kind": "ConfigError", "message": message})


@pytest.mark.parametrize("flag, message", [
    ("a=sma 0", "indicator.a: arguments must be >= 1, got 'sma 0'"),
    ("k=ama 5 10 3 1", "indicator.k: need timeperiod_long > timeperiod_short >= 1"),
])
def test_a_bad_indicator_spec_exits_2(flag, message, tmp_path, capsys):
    argv = ["indicators", "--data", str(V_FIXTURE), "--indicator", flag]
    assert _refusal(argv, tmp_path, capsys) == (2, {"kind": "ConfigError", "message": message})


@pytest.mark.parametrize("config, flags, message", [
    (None, ["close=sma 5", "index=ema 3"],
     "indicator.close: the dump already writes a column 'close'"),
    (None, ["a=sma 5", "index=ema 3"], "indicator.index: the dump already writes a column 'index'"),
    ("indicator.sma5 = sma 5\nindicator.close = sma 5\n", [],
     "indicator.close: the dump already writes a column 'close'"),
    ("indicator.index = ema 3\n", ["a=sma 5"],
     "indicator.index: the dump already writes a column 'index'"),
    ("indicator.sma5 = sma 5\nindicatr.ema3 = ema 3\nstrategy = rsi\n", [],
     "unknown top-level keys for an indicator dump: ['indicatr', 'strategy']"),
    ("strategy = rsi\n", ["a=sma 5"], "unknown top-level keys for an indicator dump: ['strategy']"),
], ids=["flag close", "flag index", "config close", "config index", "misspelt section",
        "strategy key beside a flag"])
def test_an_indicator_dump_it_would_write_wrong_exits_2(config, flags, message, tmp_path, capsys):
    # the dump writes `index` and `close` first, and a misspelt section
    # would drop its column in silence
    argv = ["indicators", "--data", str(V_FIXTURE)]
    if config is not None:
        (tmp_path / "ind.cfg").write_text(config)
        argv += ["--config", str(tmp_path / "ind.cfg")]
    for flag in flags:
        argv += ["--indicator", flag]
    assert _refusal(argv, tmp_path, capsys) == (2, {"kind": "ConfigError", "message": message})


def test_a_benchmark_of_another_length_exits_3(tmp_path, capsys):
    argv = ["backtest", "--data", str(V_FIXTURE), "--config", str(V_CONFIG),
            "--benchmark", str(DATA_DIR / "synthetic_sp500.csv")]
    assert _refusal(argv, tmp_path, capsys) == (
        3, {"kind": "LengthMismatch", "message": "benchmark has 2769 bars, data has 80"})


def _shifted_fixture(path, days, first_bar):
    """``v_fixture.csv`` with every date from bar ``first_bar`` on moved by ``days``."""
    header, *rows = V_FIXTURE.read_text().splitlines()
    for bar in range(first_bar, len(rows)):
        date, rest = rows[bar].split(",", 1)
        rows[bar] = f"{dt.date.fromisoformat(date) + dt.timedelta(days=days)},{rest}"
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("command", ["backtest", "sweep", "report"])
@pytest.mark.parametrize("days, bar, dates", [
    (3650, 0, ("2031-01-02", "2021-01-04")),
    (1, 79, ("2021-04-24", "2021-04-23")),
], ids=["every bar 3650 days later", "last bar a day later"])
def test_a_benchmark_of_other_dates_exits_3(command, days, bar, dates, tmp_path, capsys):
    # as many bars as the data, so the count check alone would pair them bar by bar
    _shifted_fixture(tmp_path / "shifted.csv", days, bar)
    argv = [command, "--data", str(V_FIXTURE), "--benchmark", str(tmp_path / "shifted.csv")]
    if command != "report":
        argv += ["--config", str(V_CONFIG)]
    assert _refusal(argv, tmp_path, capsys) == (3, {
        "kind": "LengthMismatch",
        "message": f"benchmark bar {bar} is dated {dates[0]}, data bar {bar} is dated {dates[1]}"})


def test_a_report_with_no_finite_json_form_exits_3(tmp_path, capsys):
    # every return is 1e150 - 1.0, but rr_whole is 1e300 / 1e-300, which is inf
    data = tmp_path / "extreme.csv"
    _write_closes(data, [1e-300, 1e-150, 1.0, 1e150, 1e300])
    assert _refusal(["report", "--data", str(data)], tmp_path, capsys) == (3, {
        "kind": "DomainError",
        "message": "a result is not a finite number, so it has no JSON form"})


def test_a_missing_config_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    argv = ["backtest", "--data", str(V_FIXTURE), "--config", str(missing)]
    assert _refusal(argv, tmp_path, capsys) == (
        2, {"kind": "MissingInput", "message": f"no such config file: {missing}"})


@pytest.mark.parametrize("command", ["backtest", "sweep"])
def test_a_command_without_its_config_exits_2(command, tmp_path, capsys):
    assert _refusal([command, "--data", str(V_FIXTURE)], tmp_path, capsys) == (
        2, {"kind": "MissingInput", "message": "this command needs --config"})


def test_a_file_removed_after_its_check_exits_2(tmp_path, capsys, monkeypatch):
    # the loader finds the path, and it is gone by the time it is opened
    gone = tmp_path / "gone.csv"
    with monkeypatch.context() as patch:
        patch.setattr(Path, "exists", lambda self: True)
        code = main(["ingest", "--data", str(gone), "--out-dir", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.err) == (2, "")
    assert captured.out.splitlines() == [json.dumps({"error": {
        "kind": "PathError", "message": f"cannot read {gone}: No such file or directory"}},
        sort_keys=True)]
    assert not (tmp_path / "out").exists()


def test_an_empty_csv_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    assert _refusal(["ingest", "--data", str(empty)], tmp_path, capsys) == (
        2, {"kind": "EmptySeries", "message": "file has no header row"})


# (config, sha256 of stdout, sha256 of sweep.csv) of sweeps on synthetic_sp500.csv,
# the pins the cross-interpreter checker holds
SWEEP_PINS = {
    name: (text, PINNED[f"{name} sweep stdout"], PINNED[f"{name} sweep.csv"])
    for name, text in SWEEPS.items()
}


@pytest.mark.parametrize("strategy", sorted(SWEEP_PINS))
def test_sweep_bytes_are_pinned(strategy, tmp_path, capsys):
    """stdout and sweep.csv of each pinned sweep, byte for byte.

    The rows' ratios come from exactly rounded moments, so the bytes are
    the same on every interpreter; ``test_interpreters.py`` checks them
    under each of Python 3.10 to 3.13.
    """
    text, stdout_sha, csv_sha = SWEEP_PINS[strategy]
    config = tmp_path / "sweep.cfg"
    config.write_text(text)
    code, out = run_cli(
        capsys, "sweep", "--data", str(DATA_DIR / "synthetic_sp500.csv"),
        "--config", str(config), "--out-dir", str(tmp_path / "out"),
    )
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == stdout_sha
    assert hashlib.sha256((tmp_path / "out" / "sweep.csv").read_bytes()).hexdigest() == csv_sha


class TestDeterminism:
    COMMANDS = [
        lambda data_dir, out: [
            "ingest", "--data", str(V_FIXTURE), "--out-dir", str(out)],
        lambda data_dir, out: [
            "indicators", "--data", str(V_FIXTURE), "--indicator", "sma5=sma 5",
            "--out-dir", str(out)],
        lambda data_dir, out: [
            "backtest", "--data", str(V_FIXTURE), "--config", str(V_CONFIG),
            "--out-dir", str(out)],
        lambda data_dir, out: [
            "kelly", "--p", "0.9", "--l-gain", "1.1", "--out-dir", str(out)],
        lambda data_dir, out: [
            "report", "--data", str(V_FIXTURE), "--out-dir", str(out)],
    ]

    @pytest.mark.parametrize("builder", COMMANDS)
    def test_every_command_twice_byte_identical(self, builder, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a, stdout_a = run_cli(capsys, *builder(DATA_DIR, out_a))
        code_b, stdout_b = run_cli(capsys, *builder(DATA_DIR, out_b))
        assert code_a == code_b == 0
        assert stdout_a == stdout_b
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b
        for name in files_a:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# -- the error contract under fuzzed configs and flags ---------------------------

CONFIG_KEYS = [
    "fast.kind", "fast.period", "fast.smoothing", "slow.kind", "slow.period",
    "ma.kind", "ma.period", "ma.smoothing", "ma.matype", "ma.timeperiod_long",
    "ma.timeperiod_short", "ma.ada_win",
    "keltner.mult", "bollinger.n", "bollinger.dev",
    "rsi.n", "rsi.down_thres", "rsi.upper_thres", "rsi.diff_rate", "rsi.rsitype",
    "rsi.sma_n", "rsi.sma_rate", "aroon.n", "aroon.aroon_type", "aroon.weak_thres",
    "macd.short_n", "macd.long_n", "macd.signal_n",
    "objective", "min_trades",
    "rsi.bogus", "ma.bogus", "macd", "two_average.n", "fast",
]
VALUE_TOKENS = [
    "abc", "inf", "-inf", "nan", "2.7", "5.0", "true", "-1", "0", "1", "2", "5", "12",
    "30", "70", "0.5", "1e308", "sma", "ema", "rr_whole", "1,2", "2,abc", "0.5,inf",
    "2:6:2", "0:1:0.5", "1:x:2",
]
# a valid config per tag, which the drawn lines then extend or override
BASE_CONFIGS = {
    "two_average": "fast.kind = sma\nfast.period = 2\nslow.kind = sma\nslow.period = 5\n",
    "price_cross": "ma.kind = ema\nma.period = 5\n",
    "keltner": "ma.kind = ema\nma.period = 5\n",
    "rsi": "rsi.n = 6\n",
    "aroon": "aroon.n = 5\n",
    "bollinger": "bollinger.n = 5\n",
    "macd": "",
    "hodl": "",
}
KELLY_TOKENS = ["0", "0.5", "0.9", "1", "1.1", "2", "-1", "inf", "-inf", "nan", "1e308",
                "1e-308", "5e-324"]


def _forbid_constant(name):
    raise ValueError(f"stdout holds the non-JSON constant {name}")


def _assert_contract(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3)
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 1 and stdout.getvalue().endswith("\n")
    json.loads(lines[0], parse_constant=_forbid_constant)
    assert stderr.getvalue() == ""


@pytest.mark.parametrize("spec", ["ema " + "9" * 401, "ama " + "9" * 401 + " 2 10 1",
                                  f"ama 30 2 {10**30} 1"], ids=["ema", "ama long", "ama window"])
def test_huge_kernel_arguments_meet_the_error_contract(spec, tmp_path):
    _assert_contract(["indicators", "--data", str(V_FIXTURE), "--indicator", f"x={spec}",
                      "--out-dir", str(tmp_path / "out")])


def test_fuzzed_configs_meet_the_error_contract(tmp_path):
    @settings(max_examples=150, deadline=None)
    @given(tag=st.sampled_from(sorted(BASE_CONFIGS)),
           lines=st.lists(st.tuples(st.sampled_from(CONFIG_KEYS), st.sampled_from(VALUE_TOKENS)),
                          max_size=5),
           command=st.sampled_from(["backtest", "sweep"]))
    def check(tag, lines, command):
        config = tmp_path / "fuzz.cfg"
        config.write_text(f"strategy = {tag}\n" + BASE_CONFIGS[tag]
                          + "".join(f"{k} = {v}\n" for k, v in lines))
        _assert_contract([command, "--data", str(V_FIXTURE), "--config", str(config),
                          "--out-dir", str(tmp_path / "out")])

    check()


def test_fuzzed_kelly_flags_meet_the_error_contract(tmp_path):
    @settings(max_examples=60, deadline=None)
    @given(p=st.sampled_from(KELLY_TOKENS), gain=st.sampled_from(KELLY_TOKENS),
           loss=st.sampled_from(KELLY_TOKENS), points=st.sampled_from(["0", "1", "2", "7"]),
           joined=st.booleans())
    def check(p, gain, loss, points, joined):
        # `--flag value` reads a bare "-inf" as an option: an InvalidArgument
        flags = {"--p": p, "--l-gain": gain, "--m-loss": loss, "--grid-points": points}
        if joined:
            argv = [f"{flag}={value}" for flag, value in flags.items()]
        else:
            argv = [token for pair in flags.items() for token in pair]
        _assert_contract(["kelly", *argv, "--out-dir", str(tmp_path / "out")])

    check()


# whole command lines: a command, then flags of that command with values of
# their type, good and bad input files among them, and now and then a token
# drawn from every flag, misspellings, abbreviations and those values
ARGV_FILES = ["<v_fixture.csv>", "<v_strategy.cfg>", "<a two-cell sweep config>",
              "<an indicator config>", "<v_fixture.csv with a NUL>",
              "<v_fixture.csv with a date 20210105>", "<v_fixture.csv with the byte 0xff>",
              "<a missing file>", "<a directory>"]
ARGV_NUMBERS = ["0", "1", "2", "7", "-3", "252", "0.55", "1.2", "inf", "-inf", "nan", "1e308",
                "5e-324", "abc", ""]
ARGV_VALUES = {
    "--data": ARGV_FILES, "--config": ARGV_FILES, "--benchmark": ["self", *ARGV_FILES],
    "--strict": [], "--lenient": [], "--use-adjusted": [],
    "--indicator": ["sma5=sma 5", "kama=ama 30 2 10 2", "x=rsi 0", "=", "a,b=ema 3", "bad",
                    "sma5.x=sma 5"],
    **dict.fromkeys(["--trading-days", "--p", "--l-gain", "--m-loss", "--grid-points"],
                    ARGV_NUMBERS),
}
DATA_FLAGS = ["--data", "--strict", "--lenient", "--use-adjusted"]
ARGV_COMMAND_FLAGS = {
    "ingest": DATA_FLAGS,
    "indicators": DATA_FLAGS + ["--config", "--indicator"],
    "backtest": DATA_FLAGS + ["--config", "--trading-days", "--benchmark"],
    "sweep": DATA_FLAGS + ["--config", "--trading-days", "--benchmark"],
    "report": DATA_FLAGS + ["--trading-days", "--benchmark"],
    "kelly": ["--p", "--l-gain", "--m-loss", "--grid-points"],
    "frobnicate": ["--data"],
}
ARGV_REQUIRED = {"ingest": ["--data"], "indicators": ["--data"], "report": ["--data"],
                 "backtest": ["--data", "--config"], "sweep": ["--data", "--config"],
                 "kelly": ["--p", "--l-gain"]}
ARGV_TOKENS = [*ARGV_VALUES, "--out-dir", "--len", "--use", "--bogus", "-x", "--", "-",
               *ARGV_NUMBERS, *ARGV_FILES, *ARGV_VALUES["--indicator"], "self", "ingest"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(ARGV_COMMAND_FLAGS)))
    argv = [command]
    # mostly the flags a run needs first, then flags drawn from the command's
    flags = [flag for flag in ARGV_REQUIRED.get(command, ()) if draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.integers(0, 4)) == 0:
            flags.append(None)
        else:
            flags.append(draw(st.sampled_from(ARGV_COMMAND_FLAGS[command])))
    for flag in flags:
        if flag is None:
            argv.append(draw(st.sampled_from(ARGV_TOKENS)))
            continue
        argv.append(flag)
        if ARGV_VALUES[flag]:
            argv.append(draw(st.sampled_from(ARGV_VALUES[flag])))
    return argv


def test_fuzzed_command_lines_meet_the_error_contract(tmp_path, monkeypatch):
    # a run whose --out-dir is lost writes into the working directory
    monkeypatch.chdir(tmp_path)
    text = V_FIXTURE.read_text()
    files = {name: tmp_path / f"input_{number}" for number, name in enumerate(ARGV_FILES)}
    files[ARGV_FILES[0]], files[ARGV_FILES[1]] = V_FIXTURE, V_CONFIG
    files[ARGV_FILES[2]].write_text("strategy = two_average\nfast.kind = sma\n"
                                    "fast.period = 2,3\nslow.kind = sma\nslow.period = 5\n")
    files[ARGV_FILES[3]].write_text("indicator.sma5 = sma 5\nindicator.rmi = rmi 5 3\n")
    files[ARGV_FILES[4]].write_text(text.replace("2021-01-06,", "2021-01-06,\x00"))
    files[ARGV_FILES[5]].write_text(text.replace("2021-01-05", "20210105"))
    files[ARGV_FILES[6]].write_bytes(text.encode().replace(b"2021-01-05", b"2021-01-05\xff"))
    files[ARGV_FILES[8]].mkdir()

    @settings(max_examples=250, deadline=None)
    @given(argv=command_lines())
    def check(argv):
        argv = [str(files[token]) if token in files else token for token in argv]
        _assert_contract(argv + ["--out-dir", str(tmp_path / "out")])

    check()
