#!/usr/bin/env python3
"""Compare what ``igl`` prints at a revision with what this checkout prints.

Usage, from the root of a checkout::

    python3 scripts/identity_sweep.py <rev> [slice ...]

extracts ``src/`` of ``<rev>`` with ``git archive`` under a temporary
directory, and removes it at the end.  One corpus is written once and
read by both sides.  Its slices, all of them by default:

* ``instances``: every file of ``instances/``, and the directory itself;
* ``workloads``: the seed-1 and seed-5 files of the four benchmark
  workloads, from ``bench/gen.make_requests`` imported as it is;
* ``malformed``: spectral trees with one or two faulty records, one for
  each message of the tree parse, the two in different subtrees;
* ``scattered``: scattered spaces with bad label keys, empty, unknown,
  unhashable or repeated labels, a stratum named twice (``"1"`` with
  ``"01"``) or a bad bound;
* ``mutations``: every file of ``instances/`` and the first 60 seed-1
  ``small_batch`` files, each field set in turn to ``null``, ``"x"``,
  ``[]``, ``{}``, ``0``, ``true``, ``-1`` and ``[[1]]`` (18,424 files);
* ``selftest``.

Each path gets ``decide`` (human; JSON under the default ``--trace
rules``, as every benchmark request prints it; JSON with ``--trace
full``), ``verify`` (human and JSON) and ``expr``, except a mutation,
which gets ``decide`` (JSON with ``--trace full``) and ``verify`` (human
and JSON); ``selftest`` runs in both formats: 70,208 runs a side in all
six slices.  Each side runs the whole list in its
own interpreter, once under ``PYTHONHASHSEED=0`` and once under ``1``,
and records every run's stdout, stderr and exit code, with
``elapsed_ms`` and the human ``timing:`` line masked.

A change that means to alter output names it in ``CHANGES``
(``scripts/sweep_changes.txt``), one line per change::

    <slice> <streams> <glob>

``<streams>`` is a comma-separated subset of ``stdout``, ``stderr`` and
``exit``, the streams that may change, and ``<glob>``, the rest of the
line, an ``fnmatch`` pattern over the run's argv joined with spaces,
its paths relative to the corpus (``decide malformed/*.json --format
json``).  Blank lines and lines starting with ``#`` are skipped.  The
script prints the runs and differences per slice, the count of runs per
exit code and the first differences, and exits 1 on a difference
between the two sides that no line names, on a line that names no
difference (so a stale file fails the next change), and on any
difference between the two hash seeds of one side, which no line
excuses.  It needs the standard library and git only.
"""

from __future__ import annotations

import argparse
import difflib
import fnmatch
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import Counter
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHANGES = ROOT / "scripts" / "sweep_changes.txt"
SLICES = ("instances", "workloads", "malformed", "scattered", "mutations", "selftest")
HASH_SEEDS = ("0", "1")
STREAMS = ("exit", "stdout", "stderr")
SHOWN = 10

MASKS = [(re.compile(r'"elapsed_ms": [0-9.e+-]+'), '"elapsed_ms": _'),
         (re.compile(r"^timing: .*$", re.M), "timing: _")]


def masked(text: str) -> str:
    """``text`` with its timing fields masked."""
    for pattern, repl in MASKS:
        text = pattern.sub(repl, text)
    return text


# runs every argv of a job file through ``igl.cli.main`` in this
# interpreter; writes (exit code, stdout digest, stderr digest) per argv
RUNNER = r"""
import contextlib, hashlib, io, json, sys
from igl import cli
sys.path.insert(0, sys.argv[3])
from identity_sweep import masked

def digest(text):
    return hashlib.sha256(masked(text).encode("utf-8", "surrogateescape")).hexdigest()

jobs, out_path = json.load(open(sys.argv[1], encoding="utf-8")), sys.argv[2]
results = []
for argv in jobs:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # a traceback is a result to compare
            code = f"raised {type(exc).__name__}"
    results.append([code, digest(out.getvalue()), digest(err.getvalue())])
with open(out_path, "w", encoding="utf-8") as fh:
    json.dump(results, fh)
"""


def tree_faults() -> list[tuple[str, object]]:
    """A faulty tree record for each message of the tree parse, by a tag
    that tells two faults of one kind apart."""
    return [
        ("not-object", lambda t: t * 5),
        ("no-id", lambda t: {"label": ["Z"] * t}),
        ("duplicate-id", lambda t: {"id": f"d{t}", "label": ["Z"],
                                    "children": [{"id": f"d{t}", "label": ["Z"]}]}),
        ("duplicate-int-id", lambda t: {"id": t - 1, "label": ["Z"],
                                        "children": [{"id": str(t - 1), "label": ["Z"]}]}),
        ("empty-label", lambda t: {"id": f"e{t}", "label": []}),
        ("label-not-list", lambda t: {"id": f"s{t}", "label": "Z"}),
        ("unknown-slot", lambda t: {"id": f"x{t}", "label": ["Z", f"X{t}"]}),
        ("unhashable-slot", lambda t: {"id": f"h{t}", "label": ["Z", [f"H{t}"]]}),
        ("children-not-list", lambda t: {"id": f"c{t}", "label": ["Z"], "children": {"id": t}}),
        ("branched-not-bool", lambda t: {"id": f"b{t}", "label": ["Z"], "branched": "yes" * t}),
    ]


def malformed_trees() -> dict[str, dict]:
    """Every fault alone, and every ordered pair of faults, the first
    nested deeper in the first subtree, the second in the second; each
    pair once more with a label on the root."""
    faults = tree_faults()
    trees = {}
    for name, make in faults:
        trees[f"{name}.json"] = {"id": "r", "children": [make(1)]}
    for (n1, f1), (n2, f2) in product(faults, repeat=2):
        root = {"id": "r", "children": [
            {"id": "a1", "label": ["Z"], "children": [
                {"id": "a2", "label": ["Z"], "children": [f1(1)]}]},
            {"id": "b1", "label": ["Z"], "children": [f2(2)]}]}
        trees[f"{n1}+{n2}.json"] = root
        trees[f"root-label+{n1}+{n2}.json"] = dict(root, label=["Z"])
    return {name: {"v": 1, "kind": "prufer_tree", "root": root}
            for name, root in trees.items()}


# a scattered space that parses; each fault below replaces one part of it
SPACE = {"bound": "w^2*3+w+4", "labels": {"0": ["Z"], "1": ["Z", "Z"], "2": ["Q"]}}


def malformed_spaces() -> dict[str, dict]:
    """Scattered spaces with one change each, to a label key, to a label
    (on each stratum in turn) or to the bound; most are faults, and a few
    parse (a repeated label, a key above the top stratum, a good bound)."""
    keys = {"letter": "x", "negative": "-1", "fraction": "1.5", "empty": "", "space": " 1",
            "arabic-digit": "\u0661", "superscript": "\u00b2", "long": "1" * 1001,
            "twice-1": "01", "twice-0": "000", "above-top": "7"}
    labels = {"empty": [], "unknown": ["X"], "unknown-later": ["Z", "W"],
              "unhashable": [["Z"]], "unhashable-dict": ["Z", {"Z": 1}], "string": "Z",
              "object": {"Z": 1}, "null": None, "repeated": ["Z"], "repeated-pair": ["Z", "Z"],
              "lower-case": ["z"], "number": [1]}
    bounds = {"empty": "", "caret": "w^", "equal-exponents": "w^2+w^2",
              "rising": "w+w^2", "zero-coefficient": "w*0", "zero-term": "0+1", "negative": "-1",
              "word": "abc", "integer": 5, "null": None, "list": ["w"],
              "long-exponent": "w^" + "9" * 1001, "long-integer": "1" * 1001,
              "missing-stratum": "w^3", "zero": "0", "finite": "7", "spaces": " w ^ 2 + 1 ",
              "omega-power": "w^2", "coefficient": "w*5+3"}
    spaces = {}
    for name, key in keys.items():
        spaces[f"key-{name}"] = dict(SPACE, labels={**SPACE["labels"], key: ["Q"]})
    for (name, label), k in product(labels.items(), SPACE["labels"]):
        spaces[f"label-{name}-at-{k}"] = dict(SPACE, labels={**SPACE["labels"], k: label})
    for name, bound in bounds.items():
        spaces[f"bound-{name}"] = dict(SPACE, bound=bound)
    spaces["labels-list"] = dict(SPACE, labels=[["Z"]])
    spaces["labels-none"] = {"bound": SPACE["bound"]}
    return {f"{name}.json": {"v": 1, "kind": "scattered_space", **space}
            for name, space in spaces.items()}


MUTANTS = {"null": None, "x": "x", "list": [], "object": {}, "0": 0, "true": True, "-1": -1,
           "nested": [[1]]}


def field_paths(x, prefix=()):
    """Every key path of a JSON value, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


def mutations(sources: dict[str, dict]) -> dict[str, dict]:
    """Each source with one field set to one of ``MUTANTS``, by a name of
    the source, the field's path and the value."""
    out = {}
    for stem, payload in sources.items():
        for path in field_paths(payload):
            for tag, value in MUTANTS.items():
                copy = json.loads(json.dumps(payload))
                rec = copy
                for key in path[:-1]:
                    rec = rec[key]
                rec[path[-1]] = value
                out[f"{stem}@{'.'.join(map(str, path))}={tag}.json"] = copy
    return out


def write_folder(folder: Path, payloads: dict[str, dict]) -> list[Path]:
    folder.mkdir()
    for name, payload in payloads.items():
        (folder / name).write_text(json.dumps(payload), encoding="utf-8")
    return sorted(folder.iterdir())


def write_corpus(corpus: Path, slices: list[str]) -> list[tuple[str, list[str]]]:
    """Write the corpus of ``slices`` under ``corpus``; the runs, each
    with its slice."""
    paths: list[tuple[str, Path]] = []
    if "instances" in slices:
        shutil.copytree(ROOT / "instances", corpus / "instances")
        paths += [("instances", p) for p in sorted((corpus / "instances").iterdir())]
        paths.append(("instances", corpus / "instances"))
    if "workloads" in slices or "mutations" in slices:
        sys.path.insert(0, str(ROOT / "bench"))
        import gen
    if "workloads" in slices:
        for workload, seed in product(gen.WORKLOADS, (1, 5)):
            folder = corpus / f"{workload}-{seed}"
            folder.mkdir()
            for name, payload in gen.make_requests(workload, seed)[0].items():
                (folder / name).write_text(gen.instance_text(payload), encoding="utf-8")
            paths += [("workloads", p) for p in sorted(folder.iterdir())]
    if "malformed" in slices:
        paths += [("malformed", p) for p in write_folder(corpus / "malformed", malformed_trees())]
    if "scattered" in slices:
        paths += [("scattered", p) for p in write_folder(corpus / "scattered", malformed_spaces())]
    argvs = []
    for slice_, p in paths:
        p = str(p)
        argvs += [(slice_, argv) for argv in (
            ["decide", p], ["decide", p, "--format", "json"],
            ["decide", p, "--format", "json", "--trace", "full"],
            ["verify", p], ["verify", p, "--format", "json"], ["expr", p])]
    if "mutations" in slices:
        sources = {f.stem: json.loads(f.read_text(encoding="utf-8"))
                   for f in sorted((ROOT / "instances").glob("*.json"))}
        batch = gen.make_requests("small_batch", 1)[0]
        sources.update((Path(name).stem, batch[name]) for name in sorted(batch)[:60])
        for p in map(str, write_folder(corpus / "mutations", mutations(sources))):
            argvs += [("mutations", argv) for argv in (
                ["decide", p, "--format", "json", "--trace", "full"],
                ["verify", p], ["verify", p, "--format", "json"])]
    if "selftest" in slices:
        argvs += [("selftest", ["selftest"]), ("selftest", ["selftest", "--format", "json"])]
    return argvs


def side_env(src: Path, seed: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed,
                PYTHONDONTWRITEBYTECODE="1")


def run_side(src: Path, jobs: Path, out: Path, seed: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(jobs), str(out),
                             str(ROOT / "scripts")], env=side_env(src, seed), cwd=src.parent)


def read_changes(text: str) -> list[tuple[str, frozenset[str], str]]:
    """``(slice, streams, glob)`` of each line of a changes file; a line
    that names no slice or stream, or has no glob, is a ``ValueError``."""
    rules = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        slice_, streams, glob = (line.split(None, 2) + ["", ""])[:3]
        named = frozenset(streams.split(","))
        if slice_ not in SLICES or not named <= set(STREAMS) or not glob.strip():
            raise ValueError(f"{CHANGES.name}:{number}: expected '<slice> "
                             f"<stream>[,<stream>...] <glob>', got {line!r}")
        rules.append((slice_, named, glob.strip()))
    return rules


def named_changes(diffs: list[tuple[str, str, frozenset[str]]],
                  rules: list[tuple[str, frozenset[str], str]]):
    """The differences that no rule names, and the rules that name no
    difference.  A difference ``(slice, argv text, changed streams)`` is
    named by a rule of its slice whose streams hold every changed one and
    whose glob matches the argv."""
    used = [False] * len(rules)
    unnamed = []
    for slice_, argv, changed in diffs:
        hits = [i for i, (s, streams, glob) in enumerate(rules)
                if s == slice_ and changed <= streams and fnmatch.fnmatchcase(argv, glob)]
        for i in hits:
            used[i] = True
        if not hits:
            unnamed.append((slice_, argv, changed))
    return unnamed, [rule for rule, hit in zip(rules, used) if not hit]


def show(argv: list[str], srcs: dict[str, Path], seed: str) -> None:
    """Run ``argv`` once more on both sides and print how the outputs differ."""
    texts = []
    for side in ("base", "change"):
        r = subprocess.run([sys.executable, "-m", "igl.cli", *argv],
                           env=side_env(srcs[side], seed), capture_output=True, text=True)
        texts.append(masked(f"exit {r.returncode}\n{r.stdout}{r.stderr}").splitlines())
    for line in list(difflib.unified_diff(*texts, "base", "change", lineterm=""))[:40]:
        print("    " + line)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("rev", help="the revision to compare this checkout with")
    ap.add_argument("slices", nargs="*", metavar="slice",
                    help=f"the corpus slices to run, of {', '.join(SLICES)} (default: all)")
    args = ap.parse_args()
    if not set(args.slices) <= set(SLICES):
        ap.error(f"a slice is one of {', '.join(SLICES)}")
    slices = args.slices or list(SLICES)
    try:
        # a line of a slice that does not run names nothing here
        rules = [rule for rule in read_changes(CHANGES.read_text(encoding="utf-8"))
                 if rule[0] in slices]
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tmp = Path(tempfile.mkdtemp(prefix="identity-sweep-"))
    base = tmp / "base"
    try:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev, "src"],
                                 stdout=subprocess.PIPE)
        if archive.returncode:
            return 2
        base.mkdir()
        subprocess.run(["tar", "-x", "-C", str(base)], input=archive.stdout, check=True)
        (tmp / "corpus").mkdir()
        runs = write_corpus(tmp / "corpus", slices)
        argvs = [argv for _, argv in runs]
        jobs = tmp / "jobs.json"
        jobs.write_text(json.dumps(argvs), encoding="utf-8")
        sides = {(side, seed): tmp / f"{side}-{seed}.json"
                 for side in ("base", "change") for seed in HASH_SEEDS}
        srcs = {"base": base / "src", "change": ROOT / "src"}
        # two interpreters at a time: one per hash seed
        for side in ("base", "change"):
            procs = [run_side(srcs[side], jobs, sides[side, seed], seed) for seed in HASH_SEEDS]
            if any([p.wait() for p in procs]):
                print(f"error: the {side} side did not finish its runs", file=sys.stderr)
                return 2
        results = {key: json.loads(path.read_text(encoding="utf-8"))
                   for key, path in sides.items()}
        ref = results["base", HASH_SEEDS[0]]
        corpus_prefix = f"{tmp / 'corpus'}{os.sep}"

        def text(argv: list[str]) -> str:
            return " ".join(a.removeprefix(corpus_prefix) for a in argv)

        def changed(want: list, got: list) -> frozenset[str]:
            return frozenset(name for name, a, b in zip(STREAMS, want, got) if a != b)

        # a side against itself under the other hash seed, and the change
        # against the base under the first
        seed_diffs = [(slice_, argv, side, changed(got[i], results[side, HASH_SEEDS[0]][i]))
                      for (side, seed), got in results.items() if seed != HASH_SEEDS[0]
                      for i, (slice_, argv) in enumerate(runs)
                      if got[i] != results[side, HASH_SEEDS[0]][i]]
        got = results["change", HASH_SEEDS[0]]
        diffs = [(slice_, argv, changed(ref[i], got[i]))
                 for i, (slice_, argv) in enumerate(runs) if got[i] != ref[i]]
        unnamed, stale = named_changes([(s, text(a), c) for s, a, c in diffs], rules)
        codes = Counter(str(code) for code, _, _ in ref)
        print(f"identity sweep of {args.rev} against {ROOT.name}: {len(argvs)} runs a side "
              f"under each of {len(HASH_SEEDS)} hash seeds ({len(argvs) * len(sides)} in all; "
              f"slices {', '.join(slices)})")
        per_slice = Counter(slice_ for slice_, _ in runs)
        per_diff = Counter(d[0] for d in diffs)
        for slice_ in slices:
            print(f"  {slice_}: {per_slice[slice_]} runs a side, {per_diff[slice_]} differences")
        print("exit codes at the base: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
        for slice_, argv, side, what in seed_diffs[:SHOWN]:
            print(f"  differs between hash seeds ({side}; {', '.join(sorted(what))}): "
                  f"igl {text(argv)}")
        for slice_, argv, what in unnamed[:SHOWN]:
            print(f"  differs, named by no line ({slice_}; {', '.join(sorted(what))}): "
                  f"igl {argv}")
        for slice_, streams, glob in stale:
            print(f"  stale line: {slice_} {','.join(sorted(streams))} {glob}")
        if unnamed:
            show({text(a): a for _, a, _ in diffs}[unnamed[0][1]], srcs, HASH_SEEDS[0])
        elif seed_diffs:
            show(seed_diffs[0][1], srcs, HASH_SEEDS[0])
        print(f"{len(diffs)} differences, {len(unnamed)} named by no line of {CHANGES.name}, "
              f"{len(stale)} stale lines, {len(seed_diffs)} hash-seed differences")
        return 1 if unnamed or stale or seed_diffs else 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    raise SystemExit(main())
