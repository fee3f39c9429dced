"""The README's python blocks, the library quick start first, run as
written on a committed fixture.

The benchmark's own checks call the library the same way (``run(...)``'s
``equity``, ``trades`` and ``buy_count``, then ``build_report``), so a
break in those calls fails here and not only in a benchmark run.
"""
import re

import oracles
from conftest import DATA_DIR, signal_pairs

README = DATA_DIR.parent.parent / "README.md"
FIXTURE = DATA_DIR / "synthetic_sp500.csv"


def python_blocks():
    """Every ``python`` block of the README, in order; the first is the quick start."""
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_quick_start_runs_and_matches_the_oracle(capsys):
    source = python_blocks()[0]
    assert 'parse_csv("spx.csv")' in source
    namespace = {}
    exec(source.replace('"spx.csv"', repr(str(FIXTURE))), namespace)
    series, signals = namespace["series"], namespace["signals"]
    result, report = namespace["result"], namespace["report"]

    closes = series.closes
    assert len(result.equity) == len(closes)
    assert len(result.trades) == result.buy_count > 0
    assert [bar for pair in result.trades for bar in pair if bar is not None] == signals
    assert report.to_dict() == oracles.naive_report(closes, signal_pairs(signals), closes, 252)
    assert capsys.readouterr().out == f"{report.rr_whole} {report.mdd} {report.sr}\n"


def test_every_readme_block_runs_in_order(tmp_path, capsys):
    # each block reads the names the blocks before it bound, as a reader's session would
    blocks = python_blocks()
    assert len(blocks) == 3
    quick_start, sweep_cell, writer = blocks
    assert '"ingested.csv"' in writer
    namespace = {}
    exec(quick_start.replace('"spx.csv"', repr(str(FIXTURE))), namespace)
    exec(sweep_cell, namespace)
    written = tmp_path / "ingested.csv"
    exec(writer.replace('"ingested.csv"', repr(str(written))), namespace)
    capsys.readouterr()

    # the sweep cell's measures are the fields of the same names of the full block
    measures, report = namespace["measures"], namespace["report"]
    assert measures._asdict() == {name: getattr(report, name) for name in measures._fields}
    assert written.read_bytes() == FIXTURE.read_bytes()
