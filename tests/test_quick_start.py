"""The README's library quick start, run as written on a committed fixture.

The benchmark's own checks call the library the same way (``run(...)``'s
``equity``, ``trades`` and ``buy_count``, then ``build_report``), so a
break in those calls fails here and not only in a benchmark run.
"""
import re

import oracles
from conftest import DATA_DIR, signal_pairs

README = DATA_DIR.parent.parent / "README.md"


def quick_start_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_quick_start_runs_and_matches_the_oracle(capsys):
    source = quick_start_source()
    assert 'parse_csv("spx.csv")' in source
    fixture = DATA_DIR / "synthetic_sp500.csv"
    namespace = {}
    exec(source.replace('"spx.csv"', repr(str(fixture))), namespace)
    series, signals = namespace["series"], namespace["signals"]
    result, report = namespace["result"], namespace["report"]

    closes = series.closes
    assert len(result.equity) == len(closes)
    assert len(result.trades) == result.buy_count > 0
    assert [bar for pair in result.trades for bar in pair if bar is not None] == signals
    assert report.to_dict() == oracles.naive_report(closes, signal_pairs(signals), closes, 252)
    assert capsys.readouterr().out == f"{report.rr_whole} {report.mdd} {report.sr}\n"
