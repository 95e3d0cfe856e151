#!/usr/bin/env python3
"""The igl benchmark: seeded instances with planted answers, sent one at a
time through the command-line front end, in process.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload fg_engine --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: interpreter
set-up, decide and verify latency, throughput, the share of correct
replies and peak memory.  With ``--trace 1`` it alternates untraced and
traced passes over the same instances and reports the per-layer metrics
of ``tracer.py``.  Either way the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a human-readable summary.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import gen  # noqa: E402
import tracer  # noqa: E402

REQUEST_LIMIT_S = 30        # a request running longer counts as failed
DEADLINE_S = 150            # stop sending requests this long after start
MIN_PASSES = 3              # repeats of every request in a timed run
SETUP_RUNS = 9
PROBE_REF_S = 0.25e-3       # latencies are scaled to a machine where probe() takes this

START = time.perf_counter()


class RequestTimeout(BaseException):
    """Raised inside a request that overruns ``REQUEST_LIMIT_S``; derives
    from ``BaseException`` so that no handler in the program absorbs it."""


def _alarm(signum, frame):
    raise RequestTimeout()


# ---------------------------------------------------------------------------
# One request
# ---------------------------------------------------------------------------

def probe() -> float:
    """Seconds taken by a fixed pure-Python loop of about a quarter of a
    millisecond, run twice so that the timed second run finds its data in
    cache: a gauge of how fast the shared machine runs right now."""
    for _ in range(2):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(300):
            key = ((i * 7919) % 1009, i % 13)
            table[key] = table.get(key, 0) + i
            acc += (i * i * 12345678901) % 1000003
        sorted(table.items())
    return time.perf_counter() - t0


class Client:
    """Closed-loop client: sends one request, waits for the reply, checks
    it against the planted answer, then sends the next."""

    def __init__(self, cli, workdir: Path) -> None:
        self.cli = cli
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def send(self, req: gen.Request) -> float:
        """Run one request; returns its latency in seconds."""
        if req.op == "selftest":
            argv = ["selftest", "--format", "json"]
        else:
            argv = [req.op, str(self.workdir / req.file), "--format", "json"]
        out, err = io.StringIO(), io.StringIO()
        why = None
        signal.setitimer(signal.ITIMER_REAL, REQUEST_LIMIT_S)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(argv)
        except RequestTimeout:
            why = f"exceeded the {REQUEST_LIMIT_S} s request limit"
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a failed request, not a crashed run
            why = f"raised {type(exc).__name__}: {exc}"
        finally:
            t1 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
        if why is None:
            why = check.reply_failure(req.op, req.expect, code, out.getvalue())
        self.attempted += 1
        if why is not None:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{req.op} {req.file}: {why}")
        return t1 - t0

    def send_gauged(self, req: gen.Request) -> tuple[float, float]:
        """``send`` between two probes: (latency, mean of the probes)."""
        before = probe()
        latency = self.send(req)
        return latency, (before + probe()) / 2


def run_pass(requests, send, on_request=None) -> list:
    """Send every request once, in order; returns what ``send`` returned."""
    results = []
    for i, req in enumerate(requests):
        if time.perf_counter() - START > DEADLINE_S:
            raise TimeoutError(f"run deadline of {DEADLINE_S} s reached")
        if on_request is not None:
            on_request(i)
        results.append(send(req))
    return results


def warm_up(client: Client, requests) -> None:
    """One untimed request of every command and instance kind, so lazy
    imports and first-call set-up are not timed."""
    seen = set()
    for req in requests:
        key = (req.op, req.file.split("-", 1)[1] if req.file else None)
        if key not in seen:
            seen.add(key)
            client.send(req)


# ---------------------------------------------------------------------------
# Measurements
# ---------------------------------------------------------------------------

def measure_setup() -> list[float]:
    """Wall seconds for a fresh interpreter to start and import
    ``igl.cli``, one child process at a time (the first run only warms
    the bytecode cache)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import igl.cli"]
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return times


def p90(xs):
    return statistics.quantiles(xs, n=10)[-1]


def growth_lines(title: str, table: dict) -> list[str]:
    """``(label, size) -> seconds`` samples as median-per-size rows."""
    def size_key(item):
        label, size = item[0]
        return (label, [int(x) for x in re.findall(r"\d+", size)], size)

    lines = [f"growth: {title} (median ms, samples)"]
    for (label, size), xs in sorted(table.items(), key=size_key):
        lines.append(f"  {label:<34} {size:<14} {statistics.median(xs) * 1000:10.3f} {len(xs):6d}")
    return lines


def timed_run(client: Client, requests, seconds: float) -> tuple[dict, list[str]]:
    """Closed-loop passes over the requests for at least ``seconds`` and
    ``MIN_PASSES`` passes.

    The shared machine runs in fast and slow phases, from tenths of a
    second to minutes, and the probe loop slows down with ``igl`` (their
    ratio held within 2% over two-second windows while both moved by 25%).
    So every sample is scaled to a machine on which the probe takes
    ``PROBE_REF_S``: its latency times ``PROBE_REF_S`` over the mean of the
    two probes around it.  A request's latency is its best scaled sample."""
    samples: list[list[tuple[float, float]]] = [[] for _ in requests]
    passes = 0
    t0 = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - t0 < seconds:
        for i, sample in enumerate(run_pass(requests, client.send_gauged)):
            samples[i].append(sample)
        passes += 1
    best = [min(x * PROBE_REF_S / g for x, g in s) for s in samples]
    raw = [min(x for x, _ in s) for s in samples]
    gauges = [g for s in samples for _, g in s]
    decide = [b * 1000.0 for b, r in zip(best, requests) if r.op == "decide"]
    verify = [b * 1000.0 for b, r in zip(best, requests) if r.op == "verify"]
    metrics = {
        "decide_ms.p50": (statistics.median(decide), "ms", len(decide)),
        "decide_ms.p90": (p90(decide), "ms", len(decide)),
        "verify_ms.p50": (statistics.median(verify), "ms", len(verify)),
        "verify_ms.p90": (p90(verify), "ms", len(verify)),
        "throughput_rps": (len(requests) / sum(best), "1/s", len(requests)),
    }
    table: dict = {}
    for b, r in zip(best, requests):
        table.setdefault((r.op, r.size), []).append(b)
    lines = [f"{passes} passes in {time.perf_counter() - t0:.1f} s; probe median "
             f"{statistics.median(gauges) * 1e3:.4f} ms, fastest {min(gauges) * 1e3:.4f} ms; "
             f"unscaled best latencies sum to {sum(raw) / sum(best):.3f} times the scaled ones"]
    return metrics, lines + growth_lines("request latency by command and size", table)


def traced_run(client: Client, requests, workload: str, seconds: float,
               spans_path: Path) -> tuple[dict, list[str]]:
    """Alternate untraced and traced passes for at least ``seconds``.
    Counts come from the first traced pass and must repeat exactly in
    every later one; times are the best over the traced passes."""
    untraced, traced, runs = [], [], []
    t0 = time.perf_counter()
    while len(runs) < 2 or time.perf_counter() - t0 < seconds:
        untraced.append(sum(run_pass(requests, client.send)))
        tr = tracer.Tracer()
        with tracer.installed(tr):
            traced.append(sum(run_pass(requests, client.send,
                                       on_request=lambda i: setattr(tr, "request", i))))
        if runs:
            if tr.exact_counts() != runs[0].exact_counts():
                raise RuntimeError("exact counters differ between two traced passes "
                                   "over the same instances")
            tr.drop_spans()
        runs.append(tr)

    first = runs[0]
    for layer, home in tracer.DESIGNATED.items():
        if workload == home and first.layer_calls(layer) == 0:
            raise RuntimeError(f"layer {layer} shows no calls on {workload}, "
                               "the workload that exists to exercise it")

    per_pass = [r.metrics() for r in runs]
    metrics = {}
    for name, (unit, how, _) in tracer.LAYER_METRICS.items():
        value = min(m[name] for m in per_pass) if how == "self" else per_pass[0][name]
        metrics[name] = (value, unit, len(runs))
    metrics["trace.overhead_ratio"] = (min(traced) / min(untraced), "ratio", len(runs))

    table: dict = {}
    for name in ("cli.main", "matrices.snf", "abelian.split_test",
                 "prufer.decide_inv_free", "scattered.decide_scattered"):
        for idx, req, dur in first.span_durations(name):
            r = requests[req]
            size = first.sizes.get(idx) or r.size
            label = f"{name} {r.op}" if name == "cli.main" else name
            table.setdefault((label, size), []).append(dur)
    lines = [f"{len(runs)} untraced and {len(runs)} traced passes"]
    lines += growth_lines("traced span time by layer and size, first traced pass", table)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    first.write_spans(spans_path, [{"op": r.op, "file": r.file, "size": r.size}
                                   for r in requests])
    lines.append(f"spans of the first traced pass: {spans_path.relative_to(ROOT)}")
    return metrics, lines


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "igl" / "cli.py").is_file():
        print(f"bench: no igl sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from igl import cli

    files, requests = gen.make_requests(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _alarm)
    try:
        for name, payload in files.items():
            (workdir / name).write_text(gen.instance_text(payload), encoding="utf-8")
        client = Client(cli, workdir)
        warm_up(client, requests)
        if args.trace:
            spans = OUT / f"spans-{args.workload}-{args.seed}.json"
            metrics, lines = traced_run(client, requests, args.workload, args.seconds, spans)
        else:
            setup = measure_setup()
            metrics, lines = timed_run(client, requests, args.seconds)
            metrics["setup_s"] = (statistics.median(setup), "s", len(setup))
            metrics["correct_frac"] = ((client.attempted - client.failed) / client.attempted,
                                       "ratio", client.attempted)
            metrics["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}: {len(files)} instances, "
          f"{len(requests)} requests per pass; attempted {client.attempted}, "
          f"failed {client.failed} (failed_frac {client.failed / client.attempted:.6f})")
    for why in client.failures:
        print(f"  FAILED {why}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:<42} {value:14.6f} {unit:<6} samples {samples}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
