"""Per-layer spans and counts, recorded from outside the program.

A ``Tracer`` wraps every public function of each layer module of
``tabacktest``. It wraps a function by rebinding every ``tabacktest.*``
module attribute that *is* that function object, so copies made by
``from .indicators import sma`` in other modules are wrapped too.
``uninstall`` puts the original objects back.

Spans (name, start, end, parent span, op id) are kept in memory and
written out at the end. A layer's self time is its spans' durations minus
the durations of their direct child spans. A function or module the
metrics name but the program no longer has is reported as absent; its
metrics read 0.
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("market_data", "config", "indicators", "strategies", "backtest",
          "metrics", "sweep", "kelly", "cli")
KERNELS = ("sma", "ema", "efficiency_ratio", "ama", "true_range", "keltner",
           "bollinger", "aroon", "rsi", "rmi", "macd")
# Called once per bar inside a kernel: a span around it would cost more
# than the work it measures.
PER_BAR = frozenset({"indicators.adaptive_period"})
_KERNEL_NAMES = frozenset(f"indicators.{k}" for k in KERNELS)

# Functions whose own self time is reported, beside the layer totals.
FUNCTIONS = (
    "metrics.build_report", "sweep.run_sweep", "sweep.sweep_to_csv",
    "market_data.parse_csv", "market_data.serialize_csv",
    "strategies.generate_signals", "strategies.signals_to_csv",
    "backtest.run", "backtest.equity_to_csv",
    "kelly.kelly_curve", "kelly.curve_to_csv",
)

# Counts read off a function's return value.
_HOOKS = {
    "market_data.parse_csv": lambda r: {"market_data.rows_parsed": len(r.series),
                                        "market_data.warnings": r.warnings},
    "strategies.generate_signals": lambda r: {"strategies.signals_emitted": len(r)},
    "backtest.run": lambda r: {"backtest.trades": len(r.trades)},
}

# (name, unit, better) of every per-layer metric, in report order.
METRICS = (
    *((f"{layer}.self_s", "s", "lower") for layer in LAYERS),
    ("indicators.calls", "count", "lower"),
    ("indicators.distinct_calls", "count", "lower"),
    ("indicators.useful_ratio", "ratio", "higher"),
    *((f"indicators.{k}.self_s", "s", "lower") for k in KERNELS),
    *((f"{name}.self_s", "s", "lower") for name in FUNCTIONS),
    ("metrics.daily_returns.calls", "count", "lower"),
    ("sweep.cells_attempted", "count", "higher"),
    ("sweep.cells_dropped", "count", "lower"),
    ("sweep.cells_ranked", "count", "higher"),
    ("sweep.useful_ratio", "ratio", "higher"),
    ("market_data.rows_parsed", "count", "higher"),
    ("market_data.warnings", "count", "lower"),
    ("strategies.signals_emitted", "count", "higher"),
    ("backtest.trades", "count", "higher"),
    ("trace.overhead_s", "s", "lower"),
)

_SCALARS = (int, float, str, bool, type(None))


def _fingerprint(value):
    """A key equal for equal kernel inputs within one op, cheap to compute."""
    if isinstance(value, _SCALARS):
        return value
    if isinstance(value, (list, tuple)):
        return ("seq", len(value), hash(tuple(value)))
    values = getattr(value, "values", None)
    if isinstance(values, list):
        return ("seq", len(values), hash(tuple(values)))
    if dataclasses.is_dataclass(value):
        fields = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
        if all(isinstance(f, _SCALARS) for f in fields):
            return (type(value).__name__, fields)
    # a price series is passed around as one object within an op
    return ("id", id(value))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index, op id]
        self.op = 0
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._distinct: set = set()
        self._stack: list[int] = []
        self._bound: list[tuple] = []
        self._wrappers: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        wrapped = set()
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"tabacktest.{layer}")
            except ImportError:
                self.absent.add(layer)
                continue
            for attr, obj in vars(module).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__ and name not in PER_BAR):
                    self._wrappers[id(obj)] = (obj, self._wrap(name, obj))
                    wrapped.add(name)
        self.absent.update({*_KERNEL_NAMES, *FUNCTIONS, "metrics.daily_returns"} - wrapped)

    def _wrap(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        kernel = name in _KERNEL_NAMES
        hook = _HOOKS.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append([name, clock(), 0, parent, self.op])
            stack.append(index)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if kernel or hook:
                # bookkeeping gets a span of its own so no layer is charged for it
                start = clock()
                self._count(name, args, kwargs, result, kernel, hook)
                spans.append(["trace", start, clock(), parent, self.op])
            return result

        return wrapper

    def _count(self, name, args, kwargs, result, kernel, hook):
        if kernel:
            key = (name, tuple(_fingerprint(a) for a in args),
                   tuple(sorted((k, _fingerprint(v)) for k, v in kwargs.items())))
            self._distinct.add((self.op, key))
        if hook:
            try:
                self.counts.update(hook(result))
            except (AttributeError, TypeError):
                self.absent.add(f"{name} result")

    def install(self) -> None:
        for module_name, module in list(sys.modules.items()):
            if module_name != "tabacktest" and not module_name.startswith("tabacktest."):
                continue
            for attr, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._bound.append((module, attr, obj))

    def uninstall(self) -> None:
        while self._bound:
            module, attr, obj = self._bound.pop()
            setattr(module, attr, obj)

    def self_times_s(self, scale: dict[int, float]) -> Counter:
        """Self time of every span name, summed over all spans, each span's
        time multiplied by its op's ``scale``."""
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: Counter = Counter()
        for i, (name, start, end, _, op) in enumerate(self.spans):
            total[name] += (end - start - child[i]) / 1e9 * scale.get(op, 1.0)
        return total

    def metrics(self, ops: int, scale: dict[int, float]) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_s, per traced op;
        times are multiplied by their op's ``scale``."""
        self_s = self.self_times_s(scale)
        calls = Counter(span[0] for span in self.spans)
        values = dict.fromkeys((name for name, *_ in METRICS if name != "trace.overhead_s"), 0.0)
        for layer in LAYERS:
            values[f"{layer}.self_s"] = sum(
                seconds for name, seconds in self_s.items() if name.startswith(layer + "."))
        for name in (*_KERNEL_NAMES, *FUNCTIONS):
            values[f"{name}.self_s"] = self_s[name]
        values["indicators.calls"] = sum(calls[name] for name in _KERNEL_NAMES)
        values["indicators.distinct_calls"] = len(self._distinct)
        values["metrics.daily_returns.calls"] = calls["metrics.daily_returns"]
        for key in ("sweep.cells_attempted", "sweep.cells_ranked", "market_data.rows_parsed",
                    "market_data.warnings", "strategies.signals_emitted", "backtest.trades"):
            values[key] = self.counts[key]
        values["sweep.cells_dropped"] = values["sweep.cells_attempted"] - values["sweep.cells_ranked"]
        per_op = {name: value / ops for name, value in values.items()}
        per_op["indicators.useful_ratio"] = _ratio(values["indicators.distinct_calls"],
                                                   values["indicators.calls"])
        per_op["sweep.useful_ratio"] = _ratio(values["sweep.cells_ranked"],
                                              values["sweep.cells_attempted"])
        return per_op

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
