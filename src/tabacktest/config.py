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

import copy
import sys
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Iterable, get_type_hints

from .errors import ConfigError, InvalidParams, MissingInput, UndecodableInput
from .indicators import AmaParams, MaLike, MaSpec
from .strategies import STRATEGIES, BollingerConfig, StrategyConfig

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
        try:
            set_leaf(tree, key, _parse_value(raw))
        except ConfigError as exc:
            raise ConfigError(f"line {line_no}: {exc}") from None
    return tree


def set_leaf(tree: dict, path: str, value: Any) -> None:
    """Set the dotted ``path`` of ``tree`` to ``value``. A key holds a value or a
    table, never both: a path through a value or onto a table is a ConfigError."""
    node = tree
    *tables, leaf = path.split(".")
    for part in tables:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"{path!r} conflicts with an earlier scalar")
    if isinstance(node.get(leaf), dict):
        raise ConfigError(f"{path!r} conflicts with an earlier subtree")
    node[leaf] = value


def parse_kv_file(path: str | Path) -> dict:
    path = Path(path)
    if not path.exists():
        raise MissingInput(f"no such config file: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise UndecodableInput(f"{path} is not UTF-8 text ({exc.reason})") from None
    return parse_kv_text(text)


_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a name"}


def _coerce(value: Any, kind: type, key: str) -> Any:
    """``value`` as a field of type ``kind`` (int, float or str).

    An int field takes integers and integral floats (``5.0``); a float
    field takes finite numbers. Lists, bools and anything else are
    ConfigErrors.
    """
    if isinstance(value, list):
        raise ConfigError(f"{key} must be a single value here (lists belong in sweep configs)")
    if kind is str and isinstance(value, str):
        return value
    if kind is not str and isinstance(value, (int, float)) and not isinstance(value, bool):
        if kind is int and (isinstance(value, int) or value.is_integer()):
            return int(value)
        # false for inf, nan and an int too large for a float
        if kind is float and abs(value) <= sys.float_info.max:
            return float(value)
    raise ConfigError(f"{key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _check_keys(cls, node: dict, namespace: str, given=()) -> list:
    """The fields of ``cls`` that ``node`` is read for, all but ``given``;
    a key that names none of them, or a missing field without a default,
    is a ConfigError."""
    read = [f for f in fields(cls) if f.name not in given]
    unknown = set(node) - {f.name for f in read}
    if unknown:
        raise ConfigError(f"unknown {namespace} keys: {sorted(unknown)}")
    missing = [f.name for f in read if f.name not in node and f.default is MISSING]
    if missing:
        raise ConfigError(f"{namespace} missing keys: {sorted(missing)}")
    return read


def _from_fields(cls, node: dict, namespace: str, **given: Any):
    """``cls(**given)`` with every other field read from ``node``."""
    types = _FIELD_TYPES[cls]
    values = {f.name: _coerce(node[f.name], types[f.name], f"{namespace}.{f.name}")
              for f in _check_keys(cls, node, namespace, given) if f.name in node}
    return cls(**given, **values)


def _ma_class(node: dict) -> type:
    return AmaParams if "matype" in node else MaSpec


def ma_from_dict(node: dict, namespace: str) -> MaLike:
    """An adaptive average when ``node`` has a ``matype``, else a plain one."""
    return _from_fields(_ma_class(node), node, namespace)


def _section(tree: dict, name: str) -> dict:
    node = tree.get(name, {})
    if not isinstance(node, dict):
        raise ConfigError(f"{name} must be a table of keys")
    return dict(node)


# resolved once: get_type_hints evaluates the annotation strings on every call
_FIELD_TYPES = {cls: get_type_hints(cls)
                for cls in (MaSpec, AmaParams, *(entry[0] for entry in STRATEGIES.values()))}

# Fields that hold a moving average; each reads its own `<field>.*` namespace.
_MA_FIELDS = ("fast", "slow", "ma")


def _bollinger_window(tree: dict, params: dict) -> int | AmaParams:
    """``bollinger.n``, or else the adaptive ``ma.*``; taking ``n`` out of ``params``."""
    if "n" in params:
        return _coerce(params.pop("n"), int, "bollinger.n")
    return ma_from_dict(tree["ma"], "ma")


# Top-level keys any strategy config may hold besides its namespaces; a
# sweep reads the last two.
_COMMON_KEYS = ("strategy", "objective", "min_trades")


def _sweep_keys(tree: dict) -> tuple[str, int]:
    """The sweep keys ``objective`` and ``min_trades``, with their defaults;
    both readers check them, as one value each, although only a sweep
    reads them."""
    objective = tree.get("objective", "sharpe_annual")
    if objective not in OBJECTIVES:
        raise ConfigError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    min_trades = tree.get("min_trades", 0)
    if isinstance(min_trades, list):
        raise ConfigError("min_trades cannot be a sweep axis: give it one value")
    min_trades = _coerce(min_trades, int, "min_trades")
    if min_trades < 0:
        raise ConfigError("min_trades must be an integer >= 0")
    return objective, min_trades


def _check_names(tree: dict, tag: str) -> type:
    """The config class of the ``tag`` strategy, once every key name of
    ``tree`` is one it reads, no required key is missing and every
    namespace it reads is a table.

    Only key names decide these checks, never values, so they hold for
    every cell of a sweep alike.
    """
    if tag not in STRATEGIES:
        raise ConfigError(f"unknown strategy tag {tag!r}")
    cls = STRATEGIES[tag][0]
    namespaces = [f.name for f in fields(cls) if f.name in _MA_FIELDS]
    known = {*_COMMON_KEYS, tag, *namespaces}
    if cls is BollingerConfig:
        known.add("ma")  # the adaptive middle line
    unknown = set(tree) - known
    if unknown:
        raise ConfigError(f"unknown top-level keys for strategy {tag}: {sorted(unknown)}")
    params = _section(tree, tag)
    if cls is BollingerConfig:
        if ("n" in params) == ("ma" in tree):
            raise ConfigError("bollinger needs exactly one of bollinger.n or ma.* (adaptive)")
        if "ma" in tree:
            namespaces.append("ma")
        params.pop("n", None)  # the plain window
    for name in namespaces:
        node = tree.get(name)
        if not isinstance(node, dict):
            raise ConfigError(f"{name}.* must be a table of keys")
        if cls is BollingerConfig and "matype" not in node:
            raise ConfigError("bollinger ma.* must be adaptive (matype et al.)")
        _check_keys(_ma_class(node), node, name)
    _check_keys(cls, params, tag, (*_MA_FIELDS, "window"))
    return cls


def strategy_from_dict(tree: dict) -> StrategyConfig:
    """Build a strategy config from a parsed tree (see module docstring).

    Moving-average fields come from their own namespaces and every scalar
    field from the `<tag>.*` section, with the defaults the config class
    declares.
    """
    tag = tree.get("strategy")
    if not isinstance(tag, str):
        raise ConfigError("config needs a 'strategy = <tag>' line")
    _sweep_keys(tree)
    cls = _check_names(tree, tag)
    params = _section(tree, tag)
    try:
        given = {f.name: ma_from_dict(tree[f.name], f.name)
                 for f in fields(cls) if f.name in _MA_FIELDS}
        if cls is BollingerConfig:
            given["window"] = _bollinger_window(tree, params)
        return _from_fields(cls, params, tag, **given)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc


# -- indicator dump specs ----------------------------------------------------

# A spec's first token names its kernel in `indicators`; the value is the
# count of integer arguments that follow it.
_INDICATOR_ARGS = {"sma": 1, "ema": 1, "rsi": 1, "rmi": 2, "ama": 4}

# Characters a column name cannot hold unquoted in indicators.csv's header.
_UNSAFE_NAME = ',"\r\n'


def indicator_columns_from_dict(tree: dict) -> list[tuple[str, str, tuple]]:
    """Columns for the indicator dump, e.g. `indicator.sma50 = sma 50`, as
    ``(name, kernel name, kernel arguments after the closes)``.

    Tokens: `sma N`, `ema N`, `rsi N`, `rmi N M`, `ama LONG SHORT ADAWIN MATYPE`
    (one `AmaParams` argument).
    A name is a CSV header field as it stands: not empty, and without a
    comma, a double quote or a line break.
    """
    section = tree.get("indicator")
    if not isinstance(section, dict) or not section:
        raise ConfigError("indicator dump config needs at least one 'indicator.<name> = <spec>' line")
    columns = []
    for name in section:
        raw = section[name]
        if not name or any(c in name for c in _UNSAFE_NAME):
            raise ConfigError(f"indicator name {name!r} is empty or holds a comma, "
                              "quote or line break")
        if not isinstance(raw, str):
            raise ConfigError(f"indicator.{name} must be a spec string")
        kind, *tokens = raw.split() or [""]
        if len(tokens) != _INDICATOR_ARGS.get(kind):
            raise ConfigError(f"indicator.{name}: unknown spec {raw!r}")
        try:
            args = [int(token) for token in tokens]
        except ValueError as exc:
            raise ConfigError(f"indicator.{name}: {exc}") from None
        columns.append((name, kind, (AmaParams(*args),) if kind == "ama" else tuple(args)))
    return columns


# -- sweep specs -------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """A sweep config: its parsed tree, whose list leaves are the axes."""

    strategy_tag: str
    tree: dict
    axes: tuple[tuple[str, tuple[Any, ...]], ...]
    objective: str
    min_trades: int

    def grid_size(self) -> int:
        size = 1
        for _, values in self.axes:
            size *= len(values)
        return size

    def cell_config(self, assignment: Iterable[tuple[str, Any]]) -> StrategyConfig:
        """The strategy config of the grid cell that sets each axis path
        of ``assignment`` to its value."""
        tree = copy.deepcopy(self.tree)
        for path, value in assignment:
            set_leaf(tree, path, value)
        return strategy_from_dict(tree)


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


def sweep_from_dict(tree: dict) -> SweepSpec:
    """The sweep of a strategy config tree, which the spec keeps as it is.

    Every list-valued leaf becomes an axis; `objective` and `min_trades`,
    one value each, control ranking and filtering.
    """
    tag = tree.get("strategy")
    if not isinstance(tag, str):
        raise ConfigError("sweep config needs a 'strategy = <tag>' line")
    objective, min_trades = _sweep_keys(tree)
    # a wrong key name would fail every cell, and an axis no cell reads
    # would rank copies of one cell
    _check_names(tree, tag)
    axes = tuple((path, tuple(value)) for path, value in sorted(_walk_leaves(tree))
                 if isinstance(value, list))
    return SweepSpec(tag, tree, axes, objective, min_trades)
