"""``scripts/line_reach.py``'s gate on a small module: a range of
statements that no run reaches fails until its table names it, and an
entry whose lines run again is stale and fails too."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = '''\
def sign(x):
    """The sign of a nonzero x."""
    if x < 0:
        return -1
    return 1


def unused():
    return 0
'''


def load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_gate_fails_an_unnamed_range_and_a_stale_entry(tmp_path, capsys):
    script = load(ROOT / "scripts" / "line_reach.py", "line_reach")
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    fixture = load(path, "fixture")
    whole = {"fixture.unused": "no caller"}
    kept = {("fixture.sign", "return -1"): "no negative input"}

    assert script.gate([path], lambda: fixture.sign(1), {}, whole) == 1
    out = capsys.readouterr().out
    assert "  fixture.sign 4 (1): UNNAMED\n" in out
    assert "  fixture.unused 9 (1): no caller\n" in out
    assert out.endswith("1 unnamed ranges, 0 stale entries\n")

    assert script.gate([path], lambda: fixture.sign(1), kept, whole) == 0
    out = capsys.readouterr().out
    assert "  fixture.sign 4 (1): no negative input\n" in out
    assert out.endswith("0 unnamed ranges, 0 stale entries\n")

    assert script.gate([path], lambda: (fixture.sign(1), fixture.sign(-1)), kept, whole) == 1
    out = capsys.readouterr().out
    assert "  stale: fixture.sign: 'return -1' names no unreached range\n" in out
    assert out.endswith("0 unnamed ranges, 1 stale entries\n")
