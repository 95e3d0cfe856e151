#!/usr/bin/env python3
"""Record benchmark runs as ``BENCH_<n>.json``.

For each round, each named checkout and each named workload, runs

    python3 <checkout>/bench/run.py --workload W --seed 1 --seconds T --trace 0

with ``T`` the ``run_seconds`` of ``BENCHMARK.json``, and keeps the last
line of its output, the JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The checkouts take
turns within every round, and which of them goes first alternates from
round to round, so that drift of the host falls on all of them alike.
Usage, from the root of a checkout::

    git clone --quiet . ../parent && git -C ../parent checkout --quiet <parent>
    python3 scripts/bench_record.py 8 --checkout parent=../parent --checkout change=. \\
        --workload fg_engine --workload small_batch --rounds 2

writes ``BENCH_8.json`` at the root of this checkout.  See the README for
how to read it.
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
SEED = 1


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


def run(path: Path, workload: str, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=path, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("n", type=int, help="number of the record: writes BENCH_<n>.json")
    ap.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                    help="a checkout to run, under a label; give one per checkout")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)

    checkouts = {}
    for spec in args.checkout:
        label, sep, path = spec.partition("=")
        if not (sep and label and (Path(path) / "bench" / "run.py").is_file()):
            ap.error(f"--checkout {spec!r}: expected LABEL=PATH of a checkout")
        checkouts[label] = Path(path).resolve()

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    runs = []
    for rnd in range(1, args.rounds + 1):
        turn = list(checkouts.items())
        for workload in args.workload:
            for label, path in turn if rnd % 2 else turn[::-1]:
                print(f"round {rnd}: {workload} on {label}", file=sys.stderr, flush=True)
                runs.append({"round": rnd, "checkout": label, "workload": workload,
                             "result": run(path, workload, seconds)})
    record = {
        "command": (f"bench/run.py --workload <workload> --seed {SEED} "
                    f"--seconds {seconds:g} --trace 0"),
        "host": {"python": platform.python_version(), "cpus": os.cpu_count(),
                 "machine": platform.machine()},
        "checkouts": {label: describe(path) for label, path in checkouts.items()},
        "runs": runs,
    }
    out = ROOT / f"BENCH_{args.n}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(out.name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
