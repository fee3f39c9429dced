import json

import pytest

from conftest import DATA_DIR
from tabacktest.cli import main

V_FIXTURE = DATA_DIR / "v_fixture.csv"
V_CONFIG = DATA_DIR / "v_strategy.cfg"
V_GOLDEN = DATA_DIR / "v_golden_report.json"


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
        import datetime as dt

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


@pytest.mark.parametrize("flags, kind", [
    (["--trading-days", "0"], "InvalidArgument"),
    (["--trading-days", "-3"], "InvalidArgument"),
    (["--data", str(DATA_DIR)], "PathError"),
    (["--benchmark", str(DATA_DIR)], "PathError"),
])
def test_bad_arguments_exit_2_with_one_json_line(flags, kind, tmp_path, capsys):
    argv = ["report", "--data", str(V_FIXTURE), "--out-dir", str(tmp_path)] + flags
    code, out = run_cli(capsys, *argv)
    assert code == 2
    lines = out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"]["kind"] == kind


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
