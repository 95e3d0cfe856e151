"""``scripts/identity_sweep.py`` names an expected change by slice,
streams and glob, and fails on a difference no line names and on a line
that names no difference."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load():
    spec = importlib.util.spec_from_file_location(
        "identity_sweep", ROOT / "scripts" / "identity_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_difference_is_named_by_slice_streams_and_glob():
    sweep = load()
    rules = sweep.read_changes(
        "# the tree parse's messages name their file\n"
        "\n"
        "malformed stderr decide malformed/*.json *\n"
        "instances stdout,stderr verify instances\n")
    assert rules == [("malformed", frozenset({"stderr"}), "decide malformed/*.json *"),
                     ("instances", frozenset({"stdout", "stderr"}), "verify instances")]
    named = ("malformed", "decide malformed/no-id.json --format json", frozenset({"stderr"}))
    assert sweep.named_changes([named], rules[:1]) == ([], [])
    # another stream, another slice or an argv outside the glob is unnamed
    for diff in [named[:2] + (frozenset({"stderr", "exit"}),),
                 ("scattered",) + named[1:],
                 (named[0], "verify malformed/no-id.json", named[2])]:
        assert sweep.named_changes([named, diff], rules[:1]) == ([diff], [])
    # a line that names no difference is stale
    assert sweep.named_changes([named], rules) == ([], [rules[1]])
    assert sweep.named_changes([], []) == ([], [])


@pytest.mark.parametrize("line", ["mutations stderr", "nowhere stderr *", "instances out *"])
def test_a_line_that_names_no_slice_stream_or_glob_is_refused(line):
    with pytest.raises(ValueError, match="sweep_changes.txt:1: expected"):
        load().read_changes(line)
