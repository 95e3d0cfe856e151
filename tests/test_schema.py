"""The instance schema is one table, ``cli.FIELDS``: the README's field
table is that table, and every schema error names its file and the path
of the value at fault."""

import importlib.util
import json
import re
from pathlib import Path

from igl import cli
from igl.errors import ENUM, INT, RECORDS, SLOTS, STR, STRATA, VECTORS

ROOT = Path(__file__).resolve().parents[1]
INSTANCES = ROOT / "instances"


def cells(field) -> list[str]:
    """The README's Type, Required, Default and Bound cells of a field."""
    kind, required, default, bound, record = field
    if kind is INT:
        low, top = bound
        limit = f"{low}" if low == top else f"at least {low}" if top is None else f"{low} to {top}"
    elif kind is ENUM:
        limit = ", ".join(f"`{value}`" for value in bound)
    elif (kind is SLOTS or kind is RECORDS) and bound:
        limit = f"at least {bound}"
    elif kind is VECTORS and bound:
        limit = f"length `{bound}`"
    elif (kind is STR or kind is STRATA) and bound:
        limit = f"at most {bound} digits"
    else:
        limit = ""
    return [f"{kind} `{record}`" if record else kind,
            {True: "yes", False: "no"}.get(required, f"when `{required}` names it"),
            "" if required else f"`{json.dumps(default)}`", limit]


def readme_rows() -> list[list[str]]:
    """The rows of the field table of the README's "Instance files"."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("## Instance files"):text.index("## Group expressions")]
    lines = [line for line in section.splitlines()
             if line.startswith("| ") and "---" not in line]
    assert lines[0] == "| Record | Field | Type | Required | Default | Bound |"
    return [[cell.strip() for cell in line.strip("|").split("|")] for line in lines[1:]]


def test_the_readme_field_table_is_the_schema_table():
    want = [[record, f"`{key}`", *cells(field)]
            for record, fields in cli.FIELDS.items() for key, field in fields.items()]
    assert readme_rows() == want


def load_sweep():
    spec = importlib.util.spec_from_file_location(
        "identity_sweep", ROOT / "scripts" / "identity_sweep.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_schema_error_names_its_file_and_a_path(tmp_path, capsys):
    """The identity sweep's malformed trees and scattered spaces, and every
    top-level field of every shipped instance set to each of the sweep's
    values: each exit-2 line is ``error: <file>: <path>: <problem>``."""
    sweep = load_sweep()
    payloads = {**sweep.malformed_trees(), **sweep.malformed_spaces()}
    for f in sorted(INSTANCES.glob("*.json")):
        payload = json.loads(f.read_text(encoding="utf-8"))
        for key in payload:
            for tag, value in sweep.MUTANTS.items():
                payloads[f"{f.stem}@{key}={tag}.json"] = dict(payload, **{key: value})
    refused = 0
    for name, payload in payloads.items():
        path = tmp_path / name
        path.write_text(json.dumps(payload), encoding="utf-8")
        code = cli.main(["decide", str(path)])
        err = capsys.readouterr().err
        if code == 2:
            assert re.fullmatch(rf"error: {re.escape(str(path))}: \S+: .+\n", err), err
            refused += 1
    assert refused > 1000


def test_a_directory_run_gives_one_outcome_per_file(tmp_path, capsys):
    """``instances/`` with one malformed file more: every shipped report as
    the directory alone prints it, one stderr line naming the bad file,
    and exit 2, under ``decide``, ``expr`` and ``verify``."""
    for f in INSTANCES.glob("*.json"):
        (tmp_path / f.name).write_bytes(f.read_bytes())
    bad = tmp_path / "bad_tower.json"
    bad.write_text('{"v": 1, "kind": "valuation", "tower": 5}', encoding="utf-8")
    timing = re.compile(r'"elapsed_ms": [0-9.e+-]+|^timing: .*$', re.M)
    for argv in (["decide"], ["decide", "--format", "json"], ["expr"],
                 ["verify"], ["verify", "--format", "json"]):
        shipped = cli.main([argv[0], str(INSTANCES), *argv[1:]])
        want = capsys.readouterr()
        assert want.err == "" and shipped in (0, 1), argv
        assert cli.main([argv[0], str(tmp_path), *argv[1:]]) == 2, argv
        got = capsys.readouterr()
        assert timing.sub("_", got.out) == timing.sub("_", want.out), argv
        assert got.err == f"error: {bad}: tower: must be a list of slots\n", argv


def test_the_envelope_name_and_source_are_strings(tmp_path, capsys):
    """A file's ``name`` and ``source`` are echoed into its report, so each
    is a string or absent; any other JSON value, ``null`` among them, is a
    schema error naming the field."""
    for key in ("name", "source"):
        for value in ([], {"a": 1}, None, 0, True):
            path = tmp_path / f"{key}.json"
            path.write_text(json.dumps({"v": 1, "kind": "krull", key: value}), encoding="utf-8")
            assert cli.main(["decide", str(path)]) == 2, (key, value)
            assert capsys.readouterr().err == f"error: {path}: {key}: must be a string\n"
    path = tmp_path / "both.json"
    path.write_text(json.dumps({"v": 1, "kind": "krull", "name": [], "source": {"a": 1}}),
                    encoding="utf-8")
    assert cli.main(["decide", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: name: must be a string\n"
    path.write_text(json.dumps({"v": 1, "kind": "krull", "name": "n", "source": "s"}),
                    encoding="utf-8")
    assert cli.main(["decide", str(path)]) == 0
    out = capsys.readouterr().out
    assert "instance: n" in out and "source: s" in out
