#!/usr/bin/env python3
"""Compare what ``igl`` prints at a revision with what this checkout prints.

Usage, from the root of a checkout::

    python3 scripts/identity_sweep.py <rev> [slice ...]

checks ``<rev>`` out with ``git worktree add`` under a temporary
directory, and removes both at the end.  One corpus is written once and
read by both sides.  Its slices, all of them by default:

* ``instances``: every file of ``instances/``, and the directory itself;
* ``workloads``: the seed-1 and seed-5 files of the four benchmark
  workloads, from ``bench/gen.make_requests`` imported as it is;
* ``malformed``: spectral trees with one or two faulty records, one for
  each message of the tree parse, the two in different subtrees;
* ``selftest``.

Each path gets ``decide`` (human, and JSON with ``--trace full``),
``verify`` (human and JSON) and ``expr``, ``selftest`` runs in both
formats.  Each side runs the whole list in its own interpreter, once
under ``PYTHONHASHSEED=0`` and once under ``1``, and records every run's
stdout, stderr and exit code, with ``elapsed_ms`` and the human
``timing:`` line masked.  The script prints the count of runs per exit
code and the first differences, and exits 1 on any difference: between
the two sides, or between the two hash seeds of one side.  It needs the
standard library and git only.
"""

from __future__ import annotations

import argparse
import difflib
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
SLICES = ("instances", "workloads", "malformed", "selftest")
HASH_SEEDS = ("0", "1")
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


def write_corpus(corpus: Path, slices: list[str]) -> list[list[str]]:
    """Write the corpus of ``slices`` under ``corpus``; the argv list."""
    paths: list[Path] = []
    if "instances" in slices:
        shutil.copytree(ROOT / "instances", corpus / "instances")
        paths += sorted((corpus / "instances").iterdir()) + [corpus / "instances"]
    if "workloads" in slices:
        sys.path.insert(0, str(ROOT / "bench"))
        import gen
        for workload, seed in product(gen.WORKLOADS, (1, 5)):
            folder = corpus / f"{workload}-{seed}"
            folder.mkdir()
            for name, payload in gen.make_requests(workload, seed)[0].items():
                (folder / name).write_text(gen.instance_text(payload), encoding="utf-8")
            paths += sorted(folder.iterdir())
    if "malformed" in slices:
        folder = corpus / "malformed"
        folder.mkdir()
        for name, payload in malformed_trees().items():
            (folder / name).write_text(json.dumps(payload), encoding="utf-8")
        paths += sorted(folder.iterdir())
    argvs = []
    for p in map(str, paths):
        argvs += [["decide", p], ["decide", p, "--format", "json", "--trace", "full"],
                  ["verify", p], ["verify", p, "--format", "json"], ["expr", p]]
    if "selftest" in slices:
        argvs += [["selftest"], ["selftest", "--format", "json"]]
    return argvs


def side_env(src: Path, seed: str) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed,
                PYTHONDONTWRITEBYTECODE="1")


def run_side(src: Path, jobs: Path, out: Path, seed: str) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-c", RUNNER, str(jobs), str(out),
                             str(ROOT / "scripts")], env=side_env(src, seed), cwd=src.parent)


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
    tmp = Path(tempfile.mkdtemp(prefix="identity-sweep-"))
    base = tmp / "base"
    try:
        if subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                           str(base), args.rev]).returncode:
            return 2
        (tmp / "corpus").mkdir()
        argvs = write_corpus(tmp / "corpus", slices)
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
        diffs = [(argv, key, ref[i], got[i]) for key, got in results.items()
                 for i, argv in enumerate(argvs) if got[i] != ref[i]]
        codes = Counter(str(code) for code, _, _ in ref)
        print(f"identity sweep of {args.rev} against {ROOT.name}: {len(argvs)} runs a side "
              f"under each of {len(HASH_SEEDS)} hash seeds ({len(argvs) * len(sides)} in all; "
              f"slices {', '.join(slices)})")
        print("exit codes at the base: " + ", ".join(f"{c}: {n}" for c, n in sorted(codes.items())))
        for argv, (side, seed), want, got in diffs[:SHOWN]:
            what = [name for name, a, b in zip(("exit code", "stdout", "stderr"), want, got)
                    if a != b]
            shown = " ".join(a.removeprefix(f"{tmp / 'corpus'}{os.sep}") for a in argv)
            print(f"  differs ({side}, PYTHONHASHSEED={seed}; {', '.join(what)}): igl {shown}")
        if diffs:
            show(diffs[0][0], srcs, diffs[0][1][1])
        print(f"{len(diffs)} differences")
        return 1 if diffs else 0
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(base)],
                       capture_output=True)
        shutil.rmtree(tmp, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True)


if __name__ == "__main__":
    raise SystemExit(main())
