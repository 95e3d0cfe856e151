"""Every function in ``src/igl`` is reached by an input, and
``scripts/line_reach.py``'s gate fails on what its tables do not name.

The function-level reading of the script: ``igl --help``, ``selftest``
and ``decide`` (human, and json with the full trace), ``verify`` and
``expr`` on every file of ``instances/``, and ``decide`` on a directory
of files that the parse refuses, run in this interpreter under the
script's statement tracer.  The functions none of whose statements
ran must be exactly those that the script's ``WHOLE`` table keeps, with
the reason each stays.  The script holds every statement to an input of
a larger corpus.  Code that only tests call belongs in ``tests/oracles.py``.
"""

import importlib.util
import json
from pathlib import Path

from igl import cli

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = str(ROOT / "instances")
RUNS = [["--help"], ["selftest"], ["decide", INSTANCES],
        ["decide", INSTANCES, "--format", "json", "--trace", "full"],
        ["verify", INSTANCES], ["expr", INSTANCES]]

# files that the parse refuses, each on its own: their messages need the
# functions that only a refusal calls
REFUSED = {
    "node-key.json": {"v": 1, "kind": "prufer_tree", "root": {
        "id": "0", "children": [{"id": "P", "label": ["Z"], "branch": False}]}},
    "flag.json": {"v": 1, "kind": "valuation", "tower": ["Z"], "maximal_branched": 1},
    "bound.json": {"v": 1, "kind": "scattered_space", "bound": "w+w", "labels": {}},
}

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


def test_every_function_is_reached_by_an_input(tmp_path):
    script = load(ROOT / "scripts" / "line_reach.py", "line_reach")
    for name, payload in REFUSED.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    table = {f: script.statements(f) for f in sorted(script.PACKAGE.glob("*.py"))}
    # a function with no statement would count as reached by no run
    assert [n for functions in table.values() for n, heads in functions.items() if not heads] == []
    codes = []
    runs = RUNS + [["decide", str(tmp_path)]]
    hit = script.traced(list(table), lambda: codes.extend(map(cli.main, runs)))
    assert codes == [0] * len(RUNS) + [2]
    dead = [r.function for r in script.unreached(table, hit) if r.whole]
    assert sorted(dead) == sorted(script.WHOLE)


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

    whole = {**whole, "fixture.sign": "no caller"}
    assert script.gate([path], lambda: fixture.sign(1), kept, whole) == 1
    out = capsys.readouterr().out
    assert "  stale: fixture.sign: a statement of it runs\n" in out
    assert out.endswith("0 unnamed ranges, 1 stale entries\n")
