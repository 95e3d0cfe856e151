"""Every function in ``src/igl`` is reached by an input.

A fresh interpreter runs ``igl --help``, ``selftest`` and ``decide``
(human, and json with the full trace), ``verify`` and ``expr`` on every
file of ``instances/``, with a profiler recording each code object entered.  Every
module-level function and every class method of the package, dunders
included, must be among them, unless ``KEPT`` names it with the reason it
stays.  Members whose code another module defines, such as the
``_asdict`` of a named tuple or the ``_generate_next_value_`` that an
enum class holds, are not the package's.  Code that only tests call belongs in ``tests/oracles.py``.

This is the function-level gate.  ``scripts/line_reach.py`` holds every
statement inside a reached function to an input of a larger corpus, and
reads ``KEPT`` here as the reasons of the whole functions it excuses.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# qualified name -> why it stays although no command reaches it
KEPT = {
    "prufer.contracted_spectrum": "a traced benchmark target",
    "prufer.SpecTree.node": "a traced benchmark target",
    "matrices.IntMatrix.det": "the maximal minor a modular HNF needs",
    "matrices.snf": "bench/checks.py pins its bindings and result until ROADMAP F",
    "matrices.gcdex": "the Bezout steps of snf's divisibility sweep, kept with snf",
    "cli.entrypoint": "the console-script shim around main",
    "abelian.FgGroup.__repr__": "a debugging aid",
    "valgroup.Atom.__repr__": "the golden digests record it",
    "valgroup.GroupExpr.__ne__": "without it, tuple.__ne__ would ignore the expression type",
    "valgroup.Verdict.__str__": "it keeps the value as the text on every supported Python",
}

_PROBE = r"""
import contextlib, importlib, io, json, pkgutil, sys
from functools import cached_property

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


sys.path.insert(0, sys.argv[1] + "/src")
sys.setprofile(profile)
import igl.cli

instances = sys.argv[1] + "/instances"
runs = [["--help"], ["selftest"], ["decide", instances],
        ["decide", instances, "--format", "json", "--trace", "full"],
        ["verify", instances], ["expr", instances]]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(igl.cli.main(argv))
sys.setprofile(None)


def code_of(obj):
    if isinstance(obj, (classmethod, staticmethod)):
        obj = obj.__func__
    elif isinstance(obj, property):
        obj = obj.fget
    elif isinstance(obj, cached_property):
        obj = obj.func
    obj = getattr(obj, "__wrapped__", obj)
    return getattr(obj, "__code__", None)


defined = {}
for info in pkgutil.iter_modules(igl.__path__):
    mod = importlib.import_module("igl." + info.name)
    for name, obj in vars(mod).items():
        if getattr(obj, "__module__", None) != mod.__name__:
            continue
        members = vars(obj).items() if isinstance(obj, type) else [(None, obj)]
        for attr, raw in members:
            code = code_of(raw)
            if code is None or code.co_filename != mod.__file__:
                continue
            qual = ".".join(p for p in (info.name, name, attr) if p)
            defined[qual] = code
print(json.dumps({"codes": codes,
                  "unreached": sorted(q for q, c in defined.items() if c not in entered)}))
"""


def test_every_function_is_reached_by_an_input():
    out = subprocess.run([sys.executable, "-c", _PROBE, str(ROOT)],
                         capture_output=True, text=True, check=True, timeout=120).stdout
    result = json.loads(out)
    assert result["codes"] == [0] * 6
    assert result["unreached"] == sorted(KEPT)
