#!/usr/bin/env python3
"""Record benchmark runs as ``BENCH_<n>.json``.

For each round, each named checkout and each named workload, runs

    python3 <checkout>/bench/run.py --workload W --seed S --seconds T --trace X

with ``S`` and ``X`` from ``--seed`` (default 1) and ``--trace`` (default
0), ``T`` the ``run_seconds`` of ``BENCHMARK.json``, and keeps the last
line of its output, the JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The checkouts take
turns within every round, and which of them goes first alternates from
round to round, so that drift of the host falls on all of them alike.
Usage, from the root of a checkout::

    git clone --quiet . ../parent && git -C ../parent checkout --quiet <parent>
    python3 scripts/bench_record.py 8 --checkout parent=../parent --checkout change=. \\
        --workload fg_engine --workload small_batch --rounds 2

writes ``BENCH_8.json`` at the root of this checkout.  With ``--append``
the runs are added to an existing record of the same checkouts, so that
one record can hold runs on several seeds, traced and untraced; every
run names its seed and trace.  See the README for how to read it.

A checkout that holds a ``__pycache__`` under ``src/`` is refused before
any run starts, since importing from cached bytecode would make its
start-up time look shorter than a fresh checkout's, and every run is
started with ``PYTHONDONTWRITEBYTECODE=1`` so that none leaves a cache.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(path: Path, *args: str) -> str | None:
    try:
        return subprocess.run(["git", "-C", str(path), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def describe(path: Path) -> dict:
    """The commit a checkout is at, and whether its files differ from it."""
    status = _git(path, "status", "--porcelain", "--untracked-files=no")
    return {"revision": _git(path, "rev-parse", "HEAD"),
            "modified": None if status is None else bool(status)}


def run(path: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    # a cached checkout imports faster, so no run may leave a cache behind
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(cmd, cwd=path, env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="number of the record: writes BENCH_<n>.json")
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                    help="a checkout to run, under a label; give one per checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--append", action="store_true",
                    help="add the runs to an existing BENCH_<n>.json of the same checkouts")
    args = ap.parse_args(argv)

    checkouts = {}
    for spec in args.checkout:
        label, sep, path = spec.partition("=")
        if not (sep and label and (Path(path) / "bench" / "run.py").is_file()):
            ap.error(f"--checkout {spec!r}: expected LABEL=PATH of a checkout")
        cache = next((Path(path) / "src").rglob("__pycache__"), None)
        if cache is not None:
            # the start-up time of a cached checkout is not that of a fresh one
            ap.error(f"--checkout {spec!r}: remove the bytecode cache {cache} first")
        checkouts[label] = Path(path).resolve()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = ROOT / f"BENCH_{args.n}.json"
    record = {
        "command": ("bench/run.py --workload <workload> --seed <seed> "
                    f"--seconds {seconds:g} --trace <trace>"),
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "checkouts": {label: describe(path) for label, path in checkouts.items()},
        "runs": [],
    }
    if args.append:
        old = json.loads(out.read_text(encoding="utf-8"))
        if old["checkouts"] != record["checkouts"] or old["host"] != record["host"]:
            ap.error(f"--append: {out.name} holds other checkouts or another host")
        record["runs"] = old["runs"]
    for rnd in range(1, args.rounds + 1):
        turn = list(checkouts.items())
        for workload in args.workload:
            for label, path in turn if rnd % 2 else turn[::-1]:
                print(f"round {rnd}: {workload} on {label}", file=sys.stderr, flush=True)
                record["runs"].append({
                    "round": rnd, "checkout": label, "workload": workload,
                    "seed": args.seed, "trace": args.trace,
                    "result": run(path, workload, args.seed, seconds, args.trace)})
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out.name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
