"""Key-value tree config files and builders for strategy/sweep/indicator specs.

Format: one `dotted.key = value` per line; `#` starts a comment; blank
lines are ignored. Values are parsed as int, float, bool, a comma list,
or an inclusive `start:stop:step` range (lists and ranges are only legal
where a sweep axis is expected). Dotted keys nest::

    strategy = price_cross
    ma.matype = 2
    ma.timeperiod_long = 51
    ma.timeperiod_short = 5
    ma.ada_win = 12

Strategy parameter namespaces: `fast.*`/`slow.*` (two_average), `ma.*`
(price_cross, keltner), and the strategy's own tag for scalar knobs,
e.g. `keltner.mult`, `rsi.n`, `bollinger.dev`, `macd.short_n`.

A moving-average namespace is either plain (`kind` + `period`) or
adaptive (`matype` + `timeperiod_long` + `timeperiod_short` + `ada_win`).
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .errors import ConfigError, InvalidParams, MissingInput, UndecodableInput
from .indicators import AmaParams, MaLike, MaSpec
from .strategies import (
    AroonConfig,
    BollingerConfig,
    KeltnerConfig,
    MacdConfig,
    PriceCrossConfig,
    RsiConfig,
    StrategyConfig,
    TwoAverageConfig,
)

OBJECTIVES = ("sharpe_annual", "ir_annual", "rr_whole")


def _parse_scalar(token: str) -> Any:
    token = token.strip()
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def _parse_value(raw: str) -> Any:
    raw = raw.strip()
    if not raw:
        raise ConfigError("empty value")
    if "," in raw:
        return [_parse_scalar(tok) for tok in raw.split(",")]
    if ":" in raw:
        parts = [_parse_scalar(tok) for tok in raw.split(":")]
        if len(parts) != 3 or not all(isinstance(p, (int, float)) for p in parts):
            raise ConfigError(f"range must be start:stop:step, got {raw!r}")
        start, stop, step = parts
        if step <= 0:
            raise ConfigError("range step must be > 0")
        values: list[Any] = []
        if all(isinstance(p, int) for p in parts):
            v = start
            while v <= stop:
                values.append(v)
                v += step
        else:
            v = float(start)
            count = 0
            while v <= float(stop) + 1e-12:
                values.append(round(v, 12))
                count += 1
                v = float(start) + count * float(step)
        if not values:
            raise ConfigError(f"range {raw!r} is empty")
        return values
    return _parse_scalar(raw)


def parse_kv_text(text: str) -> dict:
    """Parse the key-value tree format into a nested dict."""
    tree: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value'")
        key, raw = body.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        node = tree
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ConfigError(f"line {line_no}: {key!r} conflicts with an earlier scalar")
        leaf = parts[-1]
        if isinstance(node.get(leaf), dict):
            raise ConfigError(f"line {line_no}: {key!r} conflicts with an earlier subtree")
        node[leaf] = _parse_value(raw)
    return tree


def parse_kv_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"no such config file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(f"{path} is not UTF-8 text ({exc.reason})") from None
    return parse_kv_text(text)


def _require_scalar(value: Any, key: str) -> Any:
    if isinstance(value, list):
        raise ConfigError(f"{key} must be a single value here (lists belong in sweep configs)")
    return value


def ma_from_dict(node: dict, namespace: str) -> MaLike:
    if not isinstance(node, dict):
        raise ConfigError(f"{namespace}.* must be a table of keys")
    keys = set(node)
    if "matype" in keys:
        required = {"matype", "timeperiod_long", "timeperiod_short", "ada_win"}
        if keys - required:
            raise ConfigError(f"unknown {namespace} keys: {sorted(keys - required)}")
        if required - keys:
            raise ConfigError(f"{namespace} missing keys: {sorted(required - keys)}")
        return AmaParams(
            timeperiod_long=int(_require_scalar(node["timeperiod_long"], f"{namespace}.timeperiod_long")),
            timeperiod_short=int(_require_scalar(node["timeperiod_short"], f"{namespace}.timeperiod_short")),
            ada_win=int(_require_scalar(node["ada_win"], f"{namespace}.ada_win")),
            matype=int(_require_scalar(node["matype"], f"{namespace}.matype")),
        )
    required = {"kind", "period"}
    allowed = required | {"smoothing"}
    if keys - allowed:
        raise ConfigError(f"unknown {namespace} keys: {sorted(keys - allowed)}")
    if required - keys:
        raise ConfigError(f"{namespace} missing keys: {sorted(required - keys)}")
    spec = {
        "kind": str(_require_scalar(node["kind"], f"{namespace}.kind")),
        "period": int(_require_scalar(node["period"], f"{namespace}.period")),
    }
    if "smoothing" in node:
        spec["smoothing"] = float(_require_scalar(node["smoothing"], f"{namespace}.smoothing"))
    return MaSpec(**spec)


def _section(tree: dict, name: str) -> dict:
    node = tree.get(name, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{name} must be a table of keys")
    return dict(node)


def strategy_from_dict(tree: dict) -> StrategyConfig:
    """Build a strategy config from a parsed tree (see module docstring)."""
    tag = tree.get("strategy")
    if not isinstance(tag, str):
        raise ConfigError("config needs a 'strategy = <tag>' line")
    try:
        if tag == "two_average":
            return TwoAverageConfig(
                fast=ma_from_dict(tree.get("fast"), "fast"),
                slow=ma_from_dict(tree.get("slow"), "slow"),
            )
        if tag == "price_cross":
            return PriceCrossConfig(ma=ma_from_dict(tree.get("ma"), "ma"))
        if tag == "keltner":
            params = _section(tree, "keltner")
            mult = float(_require_scalar(params.pop("mult", 2.0), "keltner.mult"))
            if params:
                raise ConfigError(f"unknown keltner keys: {sorted(params)}")
            return KeltnerConfig(ma=ma_from_dict(tree.get("ma"), "ma"), mult=mult)
        if tag == "rsi":
            params = _section(tree, "rsi")
            known = {"n", "down_thres", "upper_thres", "diff_rate", "rsitype", "sma_n", "sma_rate"}
            if set(params) - known:
                raise ConfigError(f"unknown rsi keys: {sorted(set(params) - known)}")
            if "n" not in params:
                raise ConfigError("rsi.n is required")
            return RsiConfig(
                n=int(_require_scalar(params["n"], "rsi.n")),
                down_thres=float(_require_scalar(params.get("down_thres", 30.0), "rsi.down_thres")),
                upper_thres=float(_require_scalar(params.get("upper_thres", 70.0), "rsi.upper_thres")),
                diff_rate=float(_require_scalar(params.get("diff_rate", 0.0024), "rsi.diff_rate")),
                rsitype=int(_require_scalar(params.get("rsitype", 1), "rsi.rsitype")),
                sma_n=int(_require_scalar(params.get("sma_n", 0), "rsi.sma_n")),
                sma_rate=float(_require_scalar(params.get("sma_rate", 0.001), "rsi.sma_rate")),
            )
        if tag == "aroon":
            params = _section(tree, "aroon")
            known = {"n", "aroon_type", "weak_thres"}
            if set(params) - known:
                raise ConfigError(f"unknown aroon keys: {sorted(set(params) - known)}")
            if "n" not in params:
                raise ConfigError("aroon.n is required")
            return AroonConfig(
                n=int(_require_scalar(params["n"], "aroon.n")),
                aroon_type=int(_require_scalar(params.get("aroon_type", 1), "aroon.aroon_type")),
                weak_thres=float(_require_scalar(params.get("weak_thres", 45.0), "aroon.weak_thres")),
            )
        if tag == "bollinger":
            params = _section(tree, "bollinger")
            dev = float(_require_scalar(params.pop("dev", 2.0), "bollinger.dev"))
            has_n = "n" in params
            has_ma = isinstance(tree.get("ma"), dict)
            if has_n == has_ma:
                raise ConfigError("bollinger needs exactly one of bollinger.n or ma.* (adaptive)")
            if has_n:
                window: int | AmaParams = int(_require_scalar(params.pop("n"), "bollinger.n"))
            else:
                window = ma_from_dict(tree.get("ma"), "ma")
                if not isinstance(window, AmaParams):
                    raise ConfigError("bollinger ma.* must be adaptive (matype et al.)")
            if params:
                raise ConfigError(f"unknown bollinger keys: {sorted(params)}")
            return BollingerConfig(window=window, dev=dev)
        if tag == "macd":
            params = _section(tree, "macd")
            known = {"short_n", "long_n", "signal_n"}
            if set(params) - known:
                raise ConfigError(f"unknown macd keys: {sorted(set(params) - known)}")
            return MacdConfig(
                short_n=int(_require_scalar(params.get("short_n", 12), "macd.short_n")),
                long_n=int(_require_scalar(params.get("long_n", 26), "macd.long_n")),
                signal_n=int(_require_scalar(params.get("signal_n", 9), "macd.signal_n")),
            )
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown strategy tag {tag!r}")


# -- indicator dump specs ----------------------------------------------------

@dataclass(frozen=True)
class IndicatorColumn:
    name: str
    spec: Any  # ("sma", n) | ("ema", n) | ("rsi", n) | ("rmi", n, m) | MaLike


def indicator_columns_from_dict(tree: dict) -> list[IndicatorColumn]:
    """Columns for the indicator dump, e.g. `indicator.sma50 = sma 50`.

    Tokens: `sma N`, `ema N`, `rsi N`, `rmi N M`, `ama LONG SHORT ADAWIN MATYPE`.
    """
    section = tree.get("indicator")
    if not isinstance(section, dict) or not section:
        raise ConfigError("indicator dump config needs at least one 'indicator.<name> = <spec>' line")
    columns: list[IndicatorColumn] = []
    for name in section:
        raw = section[name]
        if not isinstance(raw, str):
            raise ConfigError(f"indicator.{name} must be a spec string")
        tokens = raw.split()
        kind = tokens[0] if tokens else ""
        try:
            if kind in ("sma", "ema", "rsi") and len(tokens) == 2:
                columns.append(IndicatorColumn(name, (kind, int(tokens[1]))))
            elif kind == "rmi" and len(tokens) == 3:
                columns.append(IndicatorColumn(name, (kind, int(tokens[1]), int(tokens[2]))))
            elif kind == "ama" and len(tokens) == 5:
                columns.append(
                    IndicatorColumn(
                        name,
                        AmaParams(
                            timeperiod_long=int(tokens[1]),
                            timeperiod_short=int(tokens[2]),
                            ada_win=int(tokens[3]),
                            matype=int(tokens[4]),
                        ),
                    )
                )
            else:
                raise ConfigError(f"indicator.{name}: unknown spec {raw!r}")
        except ValueError as exc:
            raise ConfigError(f"indicator.{name}: {exc}") from None
    return columns


# -- sweep specs -------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    strategy_tag: str
    base_tree: dict
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    objective: str
    min_trades: int

    def grid_size(self) -> int:
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size


def _walk_leaves(node: dict, prefix: str = "") -> list[tuple[str, Any]]:
    leaves: list[tuple[str, Any]] = []
    for key in node:
        path = f"{prefix}{key}"
        value = node[key]
        if isinstance(value, dict):
            leaves.extend(_walk_leaves(value, path + "."))
        else:
            leaves.append((path, value))
    return leaves


def set_leaf(tree: dict, path: str, value: Any) -> None:
    node = tree
    parts = path.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def sweep_from_dict(tree: dict) -> SweepSpec:
    """Split a strategy config tree into fixed values and sweep axes.

    Every list-valued leaf becomes an axis; `objective` and `min_trades`
    control ranking and filtering.
    """
    tag = tree.get("strategy")
    if not isinstance(tag, str):
        raise ConfigError("sweep config needs a 'strategy = <tag>' line")
    objective = tree.get("objective", "sharpe_annual")
    if objective not in OBJECTIVES:
        raise ConfigError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    min_trades = tree.get("min_trades", 0)
    if not isinstance(min_trades, int) or min_trades < 0:
        raise ConfigError("min_trades must be an integer >= 0")

    base: dict = {}
    axes: list[tuple[str, tuple[Any, ...]]] = []
    for path, value in sorted(_walk_leaves(tree)):
        if path in ("objective", "min_trades"):
            continue
        if isinstance(value, list):
            axes.append((path, tuple(value)))
        else:
            set_leaf(base, path, value)
    return SweepSpec(tag, base, tuple(axes), objective, min_trades)
