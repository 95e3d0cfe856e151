#!/usr/bin/env python3
"""Every statement in ``src/igl`` runs on some input, or is kept for a stated reason.

Usage, from the root of a plain checkout (nothing needs installing)::

    python3 scripts/line_reach.py

writes the identity sweep's corpus (``scripts/identity_sweep.py``'s
``write_corpus``, all six slices) under a temporary directory and adds
two slices of its own:

* ``argv``: the argv grid of ``tests/oracles.py::argv_grid``, the one
  that ``tests/test_cli.py`` reads against the former ``argparse``
  parser, run in a directory whose ``x.json`` is an instance;
* ``paths``: a file that is not UTF-8, bad JSON, JSON nested too deeply,
  a number past the decoder's digit limit, JSON that is no object, an
  empty directory, a path the system refuses, and instances that the
  parse refuses on a fact that no single-field mutation states, such as
  a misspelt key.

Every run goes through ``igl.cli.main`` in this interpreter under
``sys.settrace``.  A statement is reached when a line of it (the head
line of a compound statement) runs.  The script prints each range of
unreached statements by function, with the reason it stays, and exits 1
on a range that no table names: ``WHOLE`` below for a function none of
whose statements runs, ``KEPT`` for a range inside a reached function,
keyed by the function and the first line of the range.  An entry of
``WHOLE`` whose function runs a statement, or of ``KEPT`` that names no
unreached range (its lines now run, or they changed), is stale and fails
too.  ``tests/test_reach.py`` reads ``WHOLE`` against the functions that
``instances/`` reaches.  It needs the standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
import time
from itertools import groupby
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "igl"

_FAILS = "a failing branch of a verify check, kept so that every check can fail (ROADMAP H)"
_LIBRARY = ("a library rule that no instance kind calls, only selftest's direct cases; "
            "tests reach this branch")
_RAW = "normalize of a raw expression that no input builds; tests normalize raw ones"

# module.qualified.name -> why the whole function stays although no run reaches it
WHOLE: dict[str, str] = {
    "prufer.contracted_spectrum": "a traced benchmark target",
    "prufer.SpecTree.node": "a traced benchmark target",
    "matrices.IntMatrix.det": "the maximal minor a modular HNF needs",
    "matrices.snf": "bench/checks.py pins its bindings and result until ROADMAP F1",
    "matrices.gcdex": "the Bezout steps of snf's divisibility sweep, kept with snf",
    "matrices.kernel_basis": "bench/tracer.py binds it until ROADMAP F1; the engine reads "
                             "kernels off abelian.lattices",
    "cli.entrypoint": "the console-script shim around main",
    "abelian.FgGroup.__repr__": "a debugging aid",
    "valgroup.Atom.__repr__": "the golden digests record it",
    "valgroup.GroupExpr.__ne__": "without it, tuple.__ne__ would ignore the expression type",
    "valgroup.Verdict.__str__": "it keeps the value as the text on every supported Python",
}

# (function, first line of a range, stripped) -> why each range of that
# function starting with that line stays, although no run reaches it
KEPT: dict[tuple[str, str], str] = {
    ("abelian.SnakeResult.verify_exact", 'return "six-term sequence not exact at ker f"'): _FAILS,
    ("abelian.SnakeResult.verify_exact", 'return f"six-term sequence not exact at {name}"'): _FAILS,
    ("abelian.SnakeResult.verify_exact", 'return "six-term sequence not exact at coker h"'): _FAILS,
    ("abelian.check_diagram", 'raise DiagramError("amalgam map has the wrong kernel")'): _FAILS,
    ("abelian.check_diagram", 'raise DiagramError("amalgam map is not surjective")'): _FAILS,
    ("cli._emit", 'raise TypeError(f"Object of type {type(x).__name__} is not JSON '
                  'serializable")'):
        "canonical_json refuses what no report holds, as json.dumps does; tests check it",
    ("cli.verify_payload", "raise"):
        "another kind's DiagramError is a refused precondition (exit 3), not a failing check; "
        "only group_diagram's check calls the engine's refusals, and a test plants one",
    ("cli._run_case", 'return False, f"error: {exc}"'):
        "selftest's failing case: the built-in corpus is green, so only a fault reaches it",
    ("cli._run_case", 'return False, f"{report.verdict} [{report.expr}]"'):
        "selftest's failing case: the built-in corpus is green, so only a fault reaches it",
    ("cli._failure", 'return 4, " ".join(f"internal error: {type(exc).__name__}: {exc}".split())'):
        "exit 4: a fault in igl, never an input, ends in one line; a test plants one",
    ("corpus._check_escape_limit_rejected", 'return "accepted"'):
        "selftest's failing case: escape_index refuses a limit stage",
    ("matrices.solve", "return None"):
        "solve's answer to a system with no rational solution: the engine solves only "
        "consistent systems, and tests hold solve to its contract on the others",
    ("prufer.decide_div_free", "return Decision(Verdict.UNKNOWN, ("):
        "unbranched-maximal: its instance would ship ROADMAP F2, verify's decision-computed "
        "reporting the inv verdict, not Unknown",
    ("prufer.strongly_discrete_decide", "return Decision(Verdict.UNKNOWN, ("):
        "not-strongly-discrete: its instance would ship ROADMAP F2, verify's "
        "decision-computed reporting the inv verdict, not Unknown",
    ("scattered.Ordinal.successor", "e, c = self[-1]"): _LIBRARY,
    ("scattered.stratum_size", "return 0"):
        "a stratum above the top has no points: decide and verify ask only for occupied "
        "strata, and tests hold the closed form to the derived walk past the top",
    ("scattered._derived_walk_fault",
     'return f"stratum {steps} size differs from its closed form"'): _FAILS,
    ("scattered._derived_walk_fault", 'return "strata grew under the derivative"'): _FAILS,
    ("scattered.escape_index", 'raise MalformedTraceError("empty trace")'): _LIBRARY,
    ("scattered.escape_index", 'raise MalformedTraceError("stages must strictly increase")'):
        _LIBRARY,
    ("scattered.escape_index", "raise MalformedTraceError("): _LIBRARY,
    ("scattered.escape_index",
     'raise MalformedTraceError("the ideal never blows up in this trace")'): _LIBRARY,
    ("valgroup.agree", 'return label, False, "assertion failed: " + (f"{got} != {want}" '
                       'if why is None else why)'): _FAILS,
    ("valgroup.normalize", "return Repeated(base.base, base.times * e.times)"): _RAW,
    ("valgroup.normalize", "return TRIVIAL"): _RAW,
    ("valgroup.normalize", "return levels[0]"): _RAW,
    ("valgroup.normal_invariant_factors", "return None"):
        "a group that is not finitely generated: verify asks only of finitely generated "
        "ones, and tests ask of the others",
    ("valgroup.unbranched_valuation_verdict", "return Decision(Verdict.UNKNOWN, ("): _LIBRARY,
}


class Range(NamedTuple):
    """Consecutive statements of one function that no run reached."""
    function: str   # module.qualified.name
    first: int      # line numbers in the module
    last: int
    statements: int
    text: str       # the first line, stripped
    whole: bool     # every statement of the function


def _executable_lines(source: str, filename: str) -> set[int]:
    """The lines that carry bytecode, of every code object in the module."""
    lines, todo = set(), [compile(source, filename, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line is not None)
        todo += (c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _head(stmt: ast.stmt) -> range:
    """The lines of a statement that are its own: all of a simple one, a
    compound one's up to its first inner statement."""
    body = getattr(stmt, "body", None)
    if isinstance(body, list) and body and isinstance(body[0], ast.stmt):
        return range(stmt.lineno, max(stmt.lineno, body[0].lineno - 1) + 1)
    if isinstance(stmt, ast.Match):
        return range(stmt.lineno, stmt.subject.end_lineno + 1)
    return range(stmt.lineno, stmt.end_lineno + 1)


def statements(path: Path) -> dict[str, list[range]]:
    """``{module.qualified.name: [head lines of each statement]}`` of every
    function in the module at ``path``: its statements in source order,
    those of a nested function under that function's own name, and a
    docstring or a statement with no bytecode (``global``) left out."""
    source = path.read_text(encoding="utf-8")
    executable = _executable_lines(source, str(path))
    out: dict[str, list[range]] = {}

    def visit(node: ast.AST, prefix: str, owner: str | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if owner is not None:
                    out[owner].append(_head(child))
                if isinstance(child, ast.ClassDef):
                    visit(child, name, None)
                    continue
                out[name] = []
                body = child.body
                if (isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                        and isinstance(body[0].value.value, str)):
                    body = body[1:]
                visit(ast.Module(body=body, type_ignores=[]), name, name)
            elif isinstance(child, ast.stmt):
                if owner is not None:
                    out[owner].append(_head(child))
                visit(child, prefix, owner)
            elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                visit(child, prefix, owner)

    visit(ast.parse(source), path.stem, None)
    return {name: sorted((h for h in heads if executable.intersection(h)),
                         key=lambda h: h.start)
            for name, heads in out.items()}


def traced(files: list[Path], run) -> dict[str, set[int]]:
    """The lines of ``files`` that ran while ``run()`` ran, by file name."""
    hit: dict[str, set[int]] = {str(f): set() for f in files}

    def tracer(lines: set[int]):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    # a frame of another file is not traced at all
    tracers = {name: tracer(lines) for name, lines in hit.items()}

    def call(frame, event, arg):
        return tracers.get(frame.f_code.co_filename)

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return hit


def unreached(table: dict[Path, dict[str, list[range]]],
              hit: dict[str, set[int]]) -> list[Range]:
    """Each run of consecutive statements of a function that no line of
    ``hit`` reaches, in module and line order; ``table`` holds the
    ``statements`` of each file."""
    out = []
    for path, functions in table.items():
        text = path.read_text(encoding="utf-8").splitlines()
        ran = hit[str(path)]
        for name, heads in functions.items():
            for missed, run in groupby(heads, key=lambda h: not ran.intersection(h)):
                if missed:
                    run = list(run)
                    out.append(Range(name, run[0].start, run[-1].stop - 1, len(run),
                                     text[run[0].start - 1].strip(), len(run) == len(heads)))
    return out


def judge(ranges: list[Range], kept: dict[tuple[str, str], str],
          whole: dict[str, str]) -> tuple[dict[Range, str | None], list[str]]:
    """The reason of each range, from ``whole`` (by function) or ``kept``
    (by function and first line), ``None`` where neither names it; and the
    stale entries: of ``whole``, a function that no whole range is, and of
    ``kept``, an entry that names no range."""
    reasons = {r: whole.get(r.function) or kept.get((r.function, r.text)) for r in ranges}
    named = {(r.function, r.text) for r in ranges}
    dead = {r.function for r in ranges if r.whole}
    return reasons, ([f"{f}: a statement of it runs" for f in whole if f not in dead]
                     + [f"{f}: {t!r} names no unreached range" for f, t in kept
                        if (f, t) not in named])


def _noeth(k: dict, *branches: dict) -> dict:
    return {"v": 1, "kind": "noeth_local", "k": k, "branches": [{"L": L} for L in branches]}


def bad_paths(folder: Path) -> list[Path]:
    """Paths that fail before any instance is decided, one per message:
    files that cannot be read or decoded, and instances that the parse
    refuses on a fact no single-field mutation states, a misspelt key
    among them."""
    folder.mkdir()
    texts = {"not-utf8.json": b'{"v": 1, "name": "\xff"}', "bad.json": b'{"v": 1,',
             "nested.json": b"[" * 100_000 + b"]" * 100_000,
             "long-number.json": b'{"v": ' + b"1" * 5000 + b"}", "list.json": b"[]"}
    refused = {
        "many-generators.json": {"v": 1, "kind": "group_diagram", "check": "group",
                                 "group": {"generators": 4097}},
        "no-embedding.json": _noeth({"finite": {"p": 2, "r": 2}}, {"finite": {"p": 2, "r": 3}}),
        "composite-characteristic.json": _noeth({"finite": {"p": 43 * 47}},
                                                {"finite": {"p": 43 * 47}}),
        "contradiction.json": _noeth({"opaque": {"label": "K", "characteristic": 2,
                                                 "unit_free": False}},
                                     {"opaque": {"label": "L", "characteristic": 2,
                                                 "unit_free": True}}),
        "finite-and-opaque.json": _noeth({"finite": {"p": 2}, "opaque": {"label": "K"}},
                                         {"finite": {"p": 2, "r": 2}}),
        "order-bits.json": _noeth({"finite": {"p": 3, "r": 4000}}, {"finite": {"p": 3, "r": 4000}}),
        "characteristic-one.json": _noeth({"opaque": {"label": "K", "characteristic": 1}},
                                          {"opaque": {"label": "L", "characteristic": 1}}),
        # a misspelt key: of the file, of a nested record and of a tree node
        "misspelt-field.json": {"v": 1, "kind": "krull", "varaint": "UFD"},
        "misspelt-key.json": {"v": 1, "kind": "group_diagram", "check": "group",
                              "group": {"generators": 2, "relator": [[2, 0]]}},
        "misspelt-node-key.json": {"v": 1, "kind": "prufer_tree", "root": {
            "id": "0", "children": [{"id": "P", "label": ["Z"], "branch": False}]}},
        # a key that is no name, quoted beside its record's path, and a
        # diagram term that the check does not name
        "quoted-key.json": {"v": 1, "kind": "group_diagram", "check": "group",
                            "group": {"generators": 2, "relator s": []}},
        "unnamed-term.json": {"v": 1, "kind": "group_diagram", "check": "group",
                              "group": {"generators": 1}, "ses": {}},
    }
    texts.update((name, json.dumps(payload).encode()) for name, payload in refused.items())
    for name, text in texts.items():
        (folder / name).write_bytes(text)
    (folder / "empty").mkdir()
    # a path component longer than any file system allows
    return [*(folder / name for name in texts), folder / "empty", folder / ("x" * 300)]


def corpus_runs(corpus: Path) -> list[tuple[str, list[str]]]:
    """``(slice, argv)`` of every run: the sweep's six slices, the bad paths
    and, last, the argv grid (run in ``corpus / "argv"``)."""
    sys.path.insert(0, str(ROOT / "scripts"))
    import identity_sweep
    runs = identity_sweep.write_corpus(corpus, list(identity_sweep.SLICES))
    for p in map(str, bad_paths(corpus / "paths")):
        runs += [("paths", [cmd, p, *fmt]) for cmd, fmt in (
            ("decide", []), ("decide", ["--format", "json"]), ("verify", []), ("expr", []))]
    sys.path.insert(0, str(ROOT / "tests"))
    from oracles import argv_grid
    (corpus / "argv").mkdir()
    shutil.copy(ROOT / "instances" / "y_tree.json", corpus / "argv" / "x.json")
    return runs + [("argv", argv) for argv in argv_grid()]


def gate(files: list[Path], run, kept: dict[tuple[str, str], str],
         whole: dict[str, str]) -> int:
    """Run ``run()`` under tracing, print each unreached range of ``files``
    with its reason, and return 1 on an unnamed range or a stale entry of
    ``kept`` or ``whole``, else 0."""
    started = time.perf_counter()
    hit = traced(files, run)
    seconds = time.perf_counter() - started
    table = {f: statements(f) for f in files}
    ranges = unreached(table, hit)
    reasons, stale = judge(ranges, kept, whole)
    count = sum(len(heads) for functions in table.values() for heads in functions.values())
    print(f"{sum(r.statements for r in ranges)} of {count} statements unreached in "
          f"{len(ranges)} ranges, traced in {seconds:.1f} s")
    for r in ranges:
        lines = f"{r.first}" if r.first == r.last else f"{r.first}-{r.last}"
        print(f"  {r.function} {lines} ({r.statements}): {reasons[r] or 'UNNAMED'}")
        if reasons[r] is None:
            print(f"      {json.dumps([r.function, r.text], ensure_ascii=False)}")
    for entry in stale:
        print(f"  stale: {entry}")
    unnamed = sum(reasons[r] is None for r in ranges)
    print(f"{unnamed} unnamed ranges, {len(stale)} stale entries")
    return 1 if unnamed or stale else 0


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from igl import cli
    tmp = Path(tempfile.mkdtemp(prefix="line-reach-"))
    cwd = os.getcwd()
    try:
        runs = corpus_runs(tmp)

        def run_all() -> None:
            for slice_, argv in runs:
                if slice_ == "argv":
                    os.chdir(tmp / "argv")
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)

        print(f"line reach: {len(runs)} runs through igl.cli.main")
        return gate(sorted(PACKAGE.glob("*.py")), run_all, KEPT, WHOLE)
    finally:
        os.chdir(cwd)
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
