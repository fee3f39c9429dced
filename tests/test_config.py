import itertools
import re

import pytest

from tabacktest import config, errors
from tabacktest.config import (
    MAX_GRID,
    indicator_columns_from_dict,
    parse_kv_file,
    parse_kv_text,
    strategy_from_dict,
    sweep_from_dict,
)
from tabacktest.indicators import AmaParams, MaSpec
from tabacktest.strategies import (
    AroonConfig,
    BollingerConfig,
    KeltnerConfig,
    MacdConfig,
    PriceCrossConfig,
    RsiConfig,
    TwoAverageConfig,
)


# a config text whose line is refused, and the message that says so
VALUE_ERRORS = [
    ("= 5\n", "line 1: empty key"),
    ("a = \n", "line 1: empty value"),
    ("strategy = rsi\nrsi.n = 1:5\n", "line 2: range must be start:stop:step, got '1:5'"),
    ("a = 1\n# c\nb = 1:5:0\n", "line 3: range step must be > 0"),
    ("a = 5:1:1\n", "line 1: range '5:1:1' is empty"),
    # a bool is no number here, though `true` parses as True and True == 1
    ("strategy = rsi\nrsi.n = true:3:1\n", "line 2: range must be start:stop:step, got 'true:3:1'"),
    # refused after 100,000 values, before any more are built
    ("a = 1\n# c\nfast.period = 1:100001:1\n",
     "line 3: range '1:100001:1' has more than 100000 values"),
    pytest.param(f"a = 0:{'9' * 400}:0.5\n",
                 f"line 1: range '0:{'9' * 400}:0.5' has an integer too large for a float",
                 id="an integer end too large for a float range"),
]


class TestKvParser:
    def test_nested_keys_and_types(self):
        tree = parse_kv_text(
            """
            # a comment
            strategy = macd
            macd.short_n = 12
            macd.long_n = 26
            enabled = true
            rate = 0.5  # trailing comment
            """
        )
        assert tree["strategy"] == "macd"
        assert tree["macd"] == {"short_n": 12, "long_n": 26}
        assert tree["enabled"] is True
        assert tree["rate"] == 0.5

    def test_lists_and_ranges(self):
        tree = parse_kv_text("xs = 1,2,3\nys = 2:8:2\nzs = 0.5:1.5:0.5\n")
        assert tree["xs"] == [1, 2, 3]
        assert tree["ys"] == [2, 4, 6, 8]
        assert tree["zs"] == [0.5, 1.0, 1.5]

    def test_a_range_of_ints_stays_ints_and_any_float_makes_floats(self):
        tree = parse_kv_text("ys = -3:3:3\nzs = 1:2:0.5\nws = 0:0.3:0.1\n")
        assert [(type(v), v) for v in tree["ys"]] == [(int, -3), (int, 0), (int, 3)]
        assert [(type(v), v) for v in tree["zs"]] == [(float, 1.0), (float, 1.5), (float, 2.0)]
        # each value is start + k * step, rounded to 12 places; the end holds within 1e-12
        assert tree["ws"] == [0.0, 0.1, 0.2, 0.3]

    def test_a_range_of_the_limit_is_read_whole(self):
        assert MAX_GRID == 100_000
        values = parse_kv_text(f"a = 1:{MAX_GRID}:1\n")["a"]
        assert values == list(range(1, MAX_GRID + 1))

    def test_bad_lines(self):
        with pytest.raises(errors.ConfigError):
            parse_kv_text("just a line\n")
        with pytest.raises(errors.ConfigError):
            parse_kv_text("a = \n")

    @pytest.mark.parametrize("text, message", [
        ("a = 1\na.b = 2\n", "line 2: 'a.b' conflicts with an earlier scalar"),
        ("a.b = 1\na = 2\n", "line 2: 'a' conflicts with an earlier subtree"),
    ])
    def test_a_key_holds_a_value_or_a_table_never_both(self, text, message):
        with pytest.raises(errors.ConfigError) as info:
            parse_kv_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", [
        ("strategy = rsi\nrsi.n = 5\nrsi.n = 9\n", "line 3: 'rsi.n' is set twice"),
        ("a = 1\na = 1\n", "line 2: 'a' is set twice"),
    ])
    def test_a_key_is_set_once(self, text, message):
        # the earlier value is not silently replaced, even by an equal one
        with pytest.raises(errors.ConfigError) as info:
            parse_kv_text(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text, message", VALUE_ERRORS)
    def test_a_bad_value_names_its_line(self, text, message):
        with pytest.raises(errors.ConfigError) as info:
            parse_kv_text(text)
        assert str(info.value) == message

    def test_a_leading_byte_order_mark_is_dropped(self, tmp_path):
        text = "strategy = macd\nmacd.short_n = 12\n"
        path = tmp_path / "strategy.cfg"
        path.write_bytes(("\ufeff" + text).encode("utf-8"))
        assert parse_kv_file(path) == parse_kv_text(text) == {
            "strategy": "macd", "macd": {"short_n": 12}}

    def test_non_utf8_file_is_undecodable_input(self, tmp_path):
        path = tmp_path / "strategy.cfg"
        path.write_bytes(b"strategy = macd\nmacd.short_n = 12\xff\n")
        with pytest.raises(errors.UndecodableInput):
            parse_kv_file(path)


class TestMovingAverageReader:
    """A moving-average table is read by the strategy reader alone."""

    @staticmethod
    def read(ma: dict):
        return strategy_from_dict({"strategy": "price_cross", "ma": ma}).ma

    def test_plain(self):
        assert self.read({"kind": "sma", "period": 5}) == MaSpec("sma", 5)

    def test_adaptive(self):
        got = self.read({"matype": 2, "timeperiod_long": 51, "timeperiod_short": 5, "ada_win": 12})
        assert got == AmaParams(51, 5, 12, 2)

    def test_missing_and_unknown_keys(self):
        with pytest.raises(errors.ConfigError) as info:
            self.read({"kind": "sma"})
        assert str(info.value) == "ma missing keys: ['period']"
        with pytest.raises(errors.ConfigError) as info:
            self.read({"kind": "sma", "period": 5, "bogus": 1})
        assert str(info.value) == "unknown ma keys: ['bogus']"


# a two_average config whose fast.* section follows
TWO_AVERAGE = "strategy = two_average\nslow.kind = sma\nslow.period = 20\n"

STRATEGY_TEXTS = [
    (
        "strategy = two_average\nfast.kind = sma\nfast.period = 2\nslow.kind = sma\nslow.period = 5\n",
        TwoAverageConfig(fast=MaSpec("sma", 2), slow=MaSpec("sma", 5)),
    ),
    (
        "strategy = price_cross\nma.matype = 2\nma.timeperiod_long = 51\n"
        "ma.timeperiod_short = 5\nma.ada_win = 12\n",
        PriceCrossConfig(ma=AmaParams(51, 5, 12, 2)),
    ),
    (
        "strategy = keltner\nma.kind = sma\nma.period = 8\nkeltner.mult = 2\n",
        KeltnerConfig(ma=MaSpec("sma", 8), mult=2.0),
    ),
    (
        "strategy = rsi\nrsi.n = 6\nrsi.diff_rate = 0.00043793\n",
        RsiConfig(n=6, diff_rate=0.00043793),
    ),
    (
        "strategy = rsi\nrsi.n = 2\nrsi.rsitype = 2\nrsi.sma_n = 38\nrsi.sma_rate = 0.02\n",
        RsiConfig(n=2, rsitype=2, sma_n=38, sma_rate=0.02),
    ),
    ("strategy = aroon\naroon.n = 25\n", AroonConfig(n=25)),
    (
        "strategy = bollinger\nbollinger.n = 5\nbollinger.dev = 1.1\n",
        BollingerConfig(window=5, dev=1.1),
    ),
    (
        "strategy = bollinger\nma.matype = 1\nma.timeperiod_long = 24\n"
        "ma.timeperiod_short = 8\nma.ada_win = 18\nbollinger.dev = 2.6\n",
        BollingerConfig(window=AmaParams(24, 8, 18, 1), dev=2.6),
    ),
    (
        "strategy = macd\nmacd.short_n = 2\nmacd.long_n = 4\nmacd.signal_n = 18\n",
        MacdConfig(2, 4, 18),
    ),
]


class TestStrategyFromDict:
    @pytest.mark.parametrize("text,expected", STRATEGY_TEXTS)
    def test_round_trips(self, text, expected):
        assert strategy_from_dict(parse_kv_text(text)) == expected

    def test_unknown_tag(self):
        with pytest.raises(errors.ConfigError):
            strategy_from_dict({"strategy": "hodl"})

    def test_a_config_needs_a_strategy_line(self):
        with pytest.raises(errors.ConfigError) as raised:
            strategy_from_dict(parse_kv_text("rsi.n = 5\n"))
        assert str(raised.value) == "config needs a 'strategy = <tag>' line"

    def test_invalid_params_surface_as_config_errors(self):
        text = "strategy = rsi\nrsi.n = 6\nrsi.down_thres = 80\nrsi.upper_thres = 70\n"
        with pytest.raises(errors.ConfigError):
            strategy_from_dict(parse_kv_text(text))

    def test_bollinger_needs_exactly_one_window(self):
        with pytest.raises(errors.ConfigError):
            strategy_from_dict(parse_kv_text("strategy = bollinger\nbollinger.dev = 2\n"))

    # the offending line comes last and names the case
    @pytest.mark.parametrize("text", [
        "strategy = rsi\nrsi.n = abc\n",
        "strategy = rsi\nrsi.n = 2.7\n",
        "strategy = rsi\nrsi.n = 6\nrsi.diff_rate = 1" + "0" * 400 + "\n",
        "strategy = aroon\naroon.n = true\n",
        "strategy = keltner\nma.kind = ema\nma.period = 5\nkeltner.mult = x\n",
        "strategy = keltner\nma.kind = ema\nma.period = 5\nkeltner.mult = inf\n",
        "strategy = keltner\nma.kind = ema\nma.period = 5\nkeltner.mult = nan\n",
        "strategy = price_cross\nma.kind = ema\nma.period = 5\nma.smoothing = abc\n",
        "strategy = price_cross\nma.period = 5\nma.kind = 5\n",
        "strategy = two_average\nfast.kind = sma\nslow.kind = sma\nslow.period = 5\nfast.period = 2.7\n",
        "strategy = bollinger\nbollinger.n = 1,2\n",
        "strategy = two_average\nfast.kind = sma\nfast.period = 2\nslow.kind = sma\nslow.period = 5\n"
        "two_average.bogus = 1\n",
        "strategy = macd\nmacd = 3\n",
    ], ids=lambda text: text.splitlines()[-1][:32])
    def test_values_must_have_the_field_type(self, text):
        with pytest.raises(errors.ConfigError):
            strategy_from_dict(parse_kv_text(text))

    @pytest.mark.parametrize("text, key", [
        ("strategy = rsi\nrsi.n = 6\nrs.diff_rate = 0.5\n", "rs"),
        ("strategy = keltner\nma.kind = ema\nma.period = 5\nmult = 3\n", "mult"),
        ("strategy = rsi\nrsi.n = 6\nma.kind = sma\nma.period = 5\n", "ma"),
        ("strategy = price_cross\nma.kind = ema\nma.period = 5\nfast.kind = sma\n", "fast"),
        ("strategy = macd\nkeltner.mult = 2\n", "keltner"),
    ])
    def test_top_level_keys_the_strategy_does_not_read(self, text, key):
        with pytest.raises(errors.ConfigError, match=repr(key)):
            strategy_from_dict(parse_kv_text(text))

    def test_sweep_and_namespace_keys_are_read(self):
        text = ("strategy = bollinger\nobjective = rr_whole\nmin_trades = 1\nma.matype = 1\n"
                "ma.timeperiod_long = 24\nma.timeperiod_short = 8\nma.ada_win = 18\n")
        assert strategy_from_dict(parse_kv_text(text)) == BollingerConfig(AmaParams(24, 8, 18, 1))

    # each check of a config class, reached through a config file
    @pytest.mark.parametrize("text, message", [
        (TWO_AVERAGE + "fast.kind = wma\nfast.period = 5\n", "unknown moving-average kind 'wma'"),
        (TWO_AVERAGE + "fast.kind = sma\nfast.period = 0\n", "period must be >= 1"),
        (TWO_AVERAGE + "fast.kind = ema\nfast.period = 5\nfast.smoothing = 0\n",
         "smoothing factor must be > 0"),
        ("strategy = rsi\nrsi.n = 0\n", "n must be >= 1"),
        ("strategy = rsi\nrsi.n = 6\nrsi.down_thres = 80\nrsi.upper_thres = 70\n",
         "need 0 <= down_thres < upper_thres <= 100"),
        ("strategy = rsi\nrsi.n = 6\nrsi.upper_thres = 101\n",
         "need 0 <= down_thres < upper_thres <= 100"),
        ("strategy = rsi\nrsi.n = 6\nrsi.diff_rate = -0.1\n", "diff_rate must be >= 0"),
        ("strategy = rsi\nrsi.n = 6\nrsi.rsitype = 3\n", "rsitype must be 1 or 2"),
        ("strategy = rsi\nrsi.n = 6\nrsi.rsitype = 2\n", "rsitype 2 needs sma_n >= 1"),
        ("strategy = aroon\naroon.n = 0\n", "n must be >= 1"),
        ("strategy = aroon\naroon.n = 5\naroon.aroon_type = 3\n", "aroon_type must be 1 or 2"),
        ("strategy = aroon\naroon.n = 5\naroon.weak_thres = 100\n",
         "weak_thres must be in (0, 100)"),
        ("strategy = bollinger\nbollinger.n = 0\n", "window must be >= 1"),
        ("strategy = bollinger\nbollinger.n = 5\nbollinger.dev = -1\n", "dev must be >= 0"),
        ("strategy = macd\nmacd.signal_n = 0\n", "macd periods must be >= 1"),
    ], ids=lambda value: value.splitlines()[-1] if "=" in value else None)
    def test_each_config_check_is_a_config_error(self, text, message):
        with pytest.raises(errors.ConfigError) as raised:
            strategy_from_dict(parse_kv_text(text))
        assert str(raised.value) == message

    def test_integral_floats_and_ints_convert(self):
        config = strategy_from_dict(parse_kv_text(
            "strategy = rsi\nrsi.n = 6.0\nrsi.down_thres = 20\nrsi.sma_rate = 0\n"))
        assert config == RsiConfig(n=6, down_thres=20.0, sma_rate=0.0)
        assert type(config.n) is int and type(config.down_thres) is float


class TestIndicatorColumns:
    def test_specs(self):
        tree = parse_kv_text(
            "indicator.sma50 = sma 50\nindicator.ema50 = ema 50\n"
            "indicator.kama = ama 50 5 12 2\nindicator.mom = rmi 4 2\n"
        )
        columns = indicator_columns_from_dict(tree)
        assert columns == [
            ("sma50", "sma", (50,)),
            ("ema50", "ema", (50,)),
            ("kama", "ama", (AmaParams(50, 5, 12, 2),)),
            ("mom", "rmi", (4, 2)),
        ]

    def test_rejects_unknown(self):
        with pytest.raises(errors.ConfigError):
            indicator_columns_from_dict(parse_kv_text("indicator.x = vwap 5\n"))
        with pytest.raises(errors.ConfigError):
            indicator_columns_from_dict({"indicator": {}})

    @pytest.mark.parametrize("spec, message", [
        ("sma 0", "indicator.x: arguments must be >= 1, got 'sma 0'"),
        ("ema -3", "indicator.x: arguments must be >= 1, got 'ema -3'"),
        ("rsi 0", "indicator.x: arguments must be >= 1, got 'rsi 0'"),
        ("rmi 14 0", "indicator.x: arguments must be >= 1, got 'rmi 14 0'"),
        ("ama 30 0 10 1", "indicator.x: arguments must be >= 1, got 'ama 30 0 10 1'"),
        ("ama 5 10 3 1", "indicator.x: need timeperiod_long > timeperiod_short >= 1"),
        ("ama 30 2 10 3", "indicator.x: matype must be 1 or 2, got 3"),
        ("sma five", "indicator.x: invalid literal for int() with base 10: 'five'"),
        (5, "indicator.x must be a spec string"),
    ])
    def test_a_bad_spec_is_a_config_error(self, spec, message):
        # refused while the config is read, as a strategy config's value is
        with pytest.raises(errors.ConfigError) as raised:
            indicator_columns_from_dict({"indicator": {"x": spec}})
        assert str(raised.value) == message

    @pytest.mark.parametrize("name", ["a,b", 'a"b', "a\rb", "a\nb", ""])
    def test_rejects_a_name_that_breaks_the_csv_header(self, name):
        with pytest.raises(errors.ConfigError, match="indicator name"):
            indicator_columns_from_dict({"indicator": {name: "sma 5"}})


class TestSweepFromDict:
    def test_axes_and_base(self):
        tree = parse_kv_text(
            """
            strategy = macd
            objective = rr_whole
            min_trades = 2
            macd.short_n = 2:6:2
            macd.long_n = 10,20
            macd.signal_n = 9
            """
        )
        spec = sweep_from_dict(tree)
        assert spec.strategy_tag == "macd"
        assert spec.objective == "rr_whole"
        assert spec.min_trades == 2
        assert dict(spec.axes) == {
            "macd.short_n": (2, 4, 6),
            "macd.long_n": (10, 20),
        }
        assert spec.grid_size() == 6
        # a cell's tree is its axis values and every fixed value; the spec's stays as it is
        cell = (("macd.short_n", 4), ("macd.long_n", 20))
        assert spec.cell_config(cell) == MacdConfig(short_n=4, long_n=20, signal_n=9)
        assert spec.tree["macd"] == {"short_n": [2, 4, 6], "long_n": [10, 20], "signal_n": 9}

    def test_a_grid_holds_at_most_the_limit_of_cells(self):
        text = ("strategy = two_average\nfast.kind = sma\nfast.period = 1:400:1\n"
                "slow.kind = sma\nslow.period = ")
        assert sweep_from_dict(parse_kv_text(text + "1:250:1\n")).grid_size() == MAX_GRID
        with pytest.raises(errors.ConfigError) as raised:
            sweep_from_dict(parse_kv_text(text + "1:400:1\n"))
        assert str(raised.value) == "sweep grid has 160000 cells, more than 100000"

    def test_a_sweep_config_needs_a_strategy_line(self):
        with pytest.raises(errors.ConfigError) as raised:
            sweep_from_dict(parse_kv_text("rsi.n = 5,6\n"))
        assert str(raised.value) == "sweep config needs a 'strategy = <tag>' line"

    def test_defaults_and_validation(self):
        spec = sweep_from_dict(parse_kv_text("strategy = aroon\naroon.n = 5,10\n"))
        assert spec.objective == "sharpe_annual"
        assert spec.min_trades == 0
        with pytest.raises(errors.ConfigError):
            sweep_from_dict(parse_kv_text("strategy = aroon\nobjective = vibes\n"))
        # a list is no objective name, and no TypeError either
        with pytest.raises(errors.ConfigError) as raised:
            sweep_from_dict(parse_kv_text("strategy = aroon\nobjective = a,b\n"))
        assert str(raised.value) == ("objective must be one of ('sharpe_annual', 'ir_annual', "
                                     "'rr_whole'), got ['a', 'b']")
        with pytest.raises(errors.ConfigError):
            sweep_from_dict(parse_kv_text("strategy = aroon\nmin_trades = -1\n"))

    def test_min_trades_is_an_integer_field(self):
        # an integral number fits an integer field, a bool does not
        text = "strategy = aroon\naroon.n = 5,10\nmin_trades = "
        spec = sweep_from_dict(parse_kv_text(text + "2.0\n"))
        assert spec.min_trades == 2 and isinstance(spec.min_trades, int)
        for value in ("true", "2.5"):
            with pytest.raises(errors.ConfigError, match="min_trades"):
                sweep_from_dict(parse_kv_text(text + value + "\n"))

    def test_a_list_names_the_rule_it_breaks(self):
        # a backtest takes no list; a sweep takes one on any key but objective and min_trades
        text = "strategy = aroon\naroon.n = 5,10\n"
        with pytest.raises(errors.ConfigError, match=re.escape(
                "aroon.n must be a single value here (lists belong in sweep configs)")):
            strategy_from_dict(parse_kv_text(text))
        # also where the lists would make a grid past the limit
        text = ("strategy = two_average\nfast.kind = sma\nfast.period = 1:400:1\n"
                "slow.kind = sma\nslow.period = 1:400:1\n")
        with pytest.raises(errors.ConfigError) as raised:
            strategy_from_dict(parse_kv_text(text))
        assert str(raised.value) == ("fast.period must be a single value here "
                                     "(lists belong in sweep configs)")
        with pytest.raises(errors.ConfigError) as raised:
            sweep_from_dict(parse_kv_text(text + "min_trades = 1,2\n"))
        assert str(raised.value) == "min_trades cannot be a sweep axis: give it one value"

    def test_an_axis_no_cell_reads_is_rejected(self):
        # it would rank copies of one cell, each at the default mult
        text = "strategy = keltner\nma.kind = ema\nma.period = 5,10\nmult = 0:3:0.5\n"
        with pytest.raises(errors.ConfigError, match="'mult'"):
            sweep_from_dict(parse_kv_text(text))

    @pytest.mark.parametrize("text, message", [
        ("strategy = hodl\nhodl.n = 1,2\n", "unknown strategy tag 'hodl'"),
        ("strategy = rsi\nrsi.n = 5,6\nrsi.bogus = 1\n", "unknown rsi keys: ['bogus']"),
        ("strategy = rsi\nrsi.diff_rate = 0.1,0.2\n", "rsi missing keys: ['n']"),
        ("strategy = two_average\nfast.kind = sma\nfast.period = 2,3\nfast.bogus = 1\n"
         "slow.kind = sma\nslow.period = 10\n", "unknown fast keys: ['bogus']"),
        ("strategy = price_cross\nma.matype = 1,2\nma.timeperiod_long = 30\n"
         "ma.timeperiod_short = 2\nma.ada_win = 10\nma.kind = sma\n", "unknown ma keys: ['kind']"),
        ("strategy = bollinger\nbollinger.n = 10,20\nbollinger.window = 5\n",
         "unknown bollinger keys: ['window']"),
        # shapes no axis value can fix: a plain bollinger middle, a missing namespace
        ("strategy = bollinger\nma.kind = sma\nma.period = 5,10\n",
         "bollinger ma.* must be adaptive (matype et al.)"),
        ("strategy = two_average\nfast.kind = sma\nfast.period = 5,10\n",
         "slow.* must be a table of keys"),
        ("strategy = bollinger\nbollinger.dev = 1,2\n",
         "bollinger needs exactly one of bollinger.n or ma.* (adaptive)"),
    ], ids=["tag", "rsi key", "missing rsi key", "fast key", "adaptive ma key", "bollinger key",
            "plain bollinger ma", "no slow section", "no bollinger window"])
    def test_wrong_key_names_are_rejected_before_any_cell(self, text, message):
        with pytest.raises(errors.ConfigError) as raised:
            sweep_from_dict(parse_kv_text(text))
        assert str(raised.value) == message
        # a backtest of the first cell fails the same way
        first_cell = re.sub(r",[^\n]*", "", text)
        with pytest.raises(errors.ConfigError) as raised:
            strategy_from_dict(parse_kv_text(first_cell))
        assert str(raised.value) == message

    def test_key_names_are_checked_once_per_config_read(self, monkeypatch):
        calls = {"_check_names": 0, "_check_keys": 0}
        for name in calls:
            def counting(*args, _check=getattr(config, name), _name=name):
                calls[_name] += 1
                return _check(*args)
            monkeypatch.setattr(config, name, counting)
        text = ("strategy = two_average\nfast.kind = sma\nfast.period = 1:10:1\n"
                "slow.kind = sma\nslow.period = 20:110:10\n")
        spec = sweep_from_dict(parse_kv_text(text))
        names = [path for path, _ in spec.axes]
        cells = [spec.cell_config(zip(names, values))
                 for values in itertools.product(*(values for _, values in spec.axes))]
        assert len(cells) == 100 and cells[-1] == TwoAverageConfig(MaSpec("sma", 10),
                                                                    MaSpec("sma", 110))
        # one check of the top-level names, and one of each of three namespaces
        assert calls == {"_check_names": 1, "_check_keys": 3}
        calls.update(dict.fromkeys(calls, 0))
        strategy_from_dict(parse_kv_text(re.sub(r":[^\n]*", "", text)))
        assert calls == {"_check_names": 1, "_check_keys": 3}

    def test_a_cell_reads_every_value_as_a_backtest_does(self):
        # an empty table, which no config file can hold, is a value no field takes
        tree = {"strategy": "bollinger", "bollinger": {"n": [5, 10], "dev": {}}}
        message = "bollinger.dev must be a finite number, got {}"
        with pytest.raises(errors.ConfigError, match=re.escape(message)):
            sweep_from_dict(tree).cell_config([("bollinger.n", 5)])
        with pytest.raises(errors.ConfigError, match=re.escape(message)):
            strategy_from_dict({"strategy": "bollinger", "bollinger": {"n": 5, "dev": {}}})
