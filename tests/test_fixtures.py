"""``tests/data/generate_fixtures.py`` regenerates every committed fixture
byte for byte.

The script writes next to itself (its ``HERE``); here it is loaded as a
module with ``HERE`` pointed at a temporary directory, its three
``make_*`` functions run, and each file they write is compared with the
committed one.
"""
import importlib.util
import sys

from conftest import DATA_DIR

FIXTURES = ("regime_fixture.csv", "regime_golden.json", "v_fixture.csv",
            "v_golden_report.json", "v_strategy.cfg", "synthetic_sp500.csv")


def test_the_generator_rewrites_every_fixture_byte_for_byte(tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends tests/
    spec = importlib.util.spec_from_file_location(
        "generate_fixtures", DATA_DIR / "generate_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.HERE = tmp_path
    script.make_regime_fixture()
    script.make_v_fixture()
    script.make_synthetic_sp500()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(FIXTURES)
    for name in FIXTURES:
        assert (tmp_path / name).read_bytes() == (DATA_DIR / name).read_bytes(), name
