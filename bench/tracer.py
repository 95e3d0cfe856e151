"""Outside-in tracing of the ``igl`` layers, installed from benchmark code.

``installed(tracer)`` replaces the public functions named in ``TARGETS``
with timing wrappers for the duration of a ``with`` block and restores
the originals afterwards; no file under ``src/`` changes.  A module-level
function is replaced under every name that binds it in any ``igl.*``
namespace (``from .matrices import snf`` copies the binding, so patching
``igl.matrices`` alone would miss callers in ``igl.abelian``).  Methods
and cached properties are replaced on their class.

Each wrapped call records one span: name, start, end, parent span and
request id.  Spans stay in memory (compact arrays) and are written out by
``write_spans`` when the run ends.  Per-name call counts and self times
(span time minus the time of child spans) are accumulated as the spans
close, so the per-layer metrics need no second pass over the spans.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from contextlib import contextmanager
from functools import cached_property, update_wrapper

# layer (module under igl) -> wrapped names; a dotted name is Class.attribute
TARGETS = {
    "cli": ("main", "load_payload", "parse_field_desc", "parse_group", "parse_matrix",
            "parse_ses", "parse_scattered", "parse_noeth", "parse_valuation",
            "parse_prufer", "decide_payload", "verify_payload", "Report.to_dict",
            "canonical_json"),
    "matrices": ("snf", "column_hnf", "solve", "kernel_basis", "lattice_solve"),
    "abelian": ("FgGroup.invariant_factors", "ShortExactSeq.__post_init__",
                "FgHom.__post_init__", "kernel_lattice", "split_test", "snake",
                "amalgam_quotient"),
    "valgroup": ("normalize", "freeness_verdict", "render_expr", "expr_invariant_factors"),
    "prufer": ("tree_from_payload", "decide_inv_free", "decide_div_free",
               "contracted_spectrum", "gamma_at", "SpecTree.nodes", "SpecTree.node"),
    "scattered": ("parse_ordinal", "decide_scattered", "cb_derivative",
                  "stratum_multiplicity", "cb_rank"),
    "noeth": ("decide_noeth", "unit_quotient_seq", "krull_verdict"),
}

_CLI_PARSERS = [f"cli.{n}" for n in TARGETS["cli"] if n.startswith("parse_")]

# metric name -> (unit, how it is computed, spans or statistic it reads)
#   "self":  summed self time of the spans, milliseconds per pass
#   "calls": number of calls of the spans, per pass
#   "stat":  a statistic gathered by a result hook (see ``_HOOKS``)
LAYER_METRICS = {
    "cli.main.self_ms": ("ms", "self", ["cli.main"]),
    "cli.load_payload.self_ms": ("ms", "self", ["cli.load_payload"]),
    "cli.parse.self_ms": ("ms", "self", _CLI_PARSERS),
    "cli.decide_payload.self_ms": ("ms", "self", ["cli.decide_payload"]),
    "cli.verify_payload.self_ms": ("ms", "self", ["cli.verify_payload"]),
    "cli.render.self_ms": ("ms", "self", ["cli.Report.to_dict", "cli.canonical_json"]),
    "matrices.snf.calls": ("count", "calls", ["matrices.snf"]),
    "matrices.snf.self_ms": ("ms", "self", ["matrices.snf"]),
    "matrices.snf.max_dim": ("count", "stat", "snf.max_dim"),
    "matrices.snf.max_entry_bits": ("bits", "stat", "snf.max_entry_bits"),
    "matrices.column_hnf.calls": ("count", "calls", ["matrices.column_hnf"]),
    "matrices.column_hnf.self_ms": ("ms", "self", ["matrices.column_hnf"]),
    "matrices.column_hnf.max_entry_bits": ("bits", "stat", "column_hnf.max_entry_bits"),
    "matrices.solve.self_ms": ("ms", "self", ["matrices.solve"]),
    "matrices.kernel_basis.self_ms": ("ms", "self", ["matrices.kernel_basis"]),
    "matrices.lattice_solve.calls": ("count", "calls", ["matrices.lattice_solve"]),
    "abelian.invariant_factors.calls": ("count", "calls", ["abelian.FgGroup.invariant_factors"]),
    "abelian.invariant_factors.self_ms": ("ms", "self", ["abelian.FgGroup.invariant_factors"]),
    "abelian.ses_exactness.self_ms": ("ms", "self", ["abelian.ShortExactSeq.__post_init__"]),
    "abelian.fghom_check.calls": ("count", "calls", ["abelian.FgHom.__post_init__"]),
    "abelian.kernel_lattice.calls": ("count", "calls", ["abelian.kernel_lattice"]),
    "abelian.split_test.self_ms": ("ms", "self", ["abelian.split_test"]),
    "abelian.snake.self_ms": ("ms", "self", ["abelian.snake"]),
    "abelian.amalgam_quotient.self_ms": ("ms", "self", ["abelian.amalgam_quotient"]),
    "valgroup.normalize.calls": ("count", "calls", ["valgroup.normalize"]),
    "valgroup.normalize.self_ms": ("ms", "self", ["valgroup.normalize"]),
    "valgroup.freeness_verdict.calls": ("count", "calls", ["valgroup.freeness_verdict"]),
    "valgroup.freeness_verdict.self_ms": ("ms", "self", ["valgroup.freeness_verdict"]),
    "valgroup.render_expr.calls": ("count", "calls", ["valgroup.render_expr"]),
    "valgroup.render_expr.self_ms": ("ms", "self", ["valgroup.render_expr"]),
    "valgroup.expr_invariant_factors.self_ms": ("ms", "self", ["valgroup.expr_invariant_factors"]),
    "prufer.tree_from_payload.self_ms": ("ms", "self", ["prufer.tree_from_payload"]),
    "prufer.decide_inv_free.self_ms": ("ms", "self", ["prufer.decide_inv_free"]),
    "prufer.decide_div_free.self_ms": ("ms", "self", ["prufer.decide_div_free"]),
    "prufer.contracted_spectrum.self_ms": ("ms", "self", ["prufer.contracted_spectrum"]),
    "prufer.gamma_at.calls": ("count", "calls", ["prufer.gamma_at"]),
    "prufer.nodes_visited": ("count", "stat", "nodes_visited"),
    "prufer.node_lookups": ("count", "calls", ["prufer.SpecTree.node"]),
    "scattered.parse_ordinal.self_ms": ("ms", "self", ["scattered.parse_ordinal"]),
    "scattered.decide_scattered.self_ms": ("ms", "self", ["scattered.decide_scattered"]),
    "scattered.cb_derivative.calls": ("count", "calls", ["scattered.cb_derivative"]),
    "scattered.stratum_multiplicity.self_ms": ("ms", "self", ["scattered.stratum_multiplicity"]),
    "scattered.cb_rank.self_ms": ("ms", "self", ["scattered.cb_rank"]),
    "noeth.decide_noeth.self_ms": ("ms", "self", ["noeth.decide_noeth"]),
    "noeth.unit_quotient_seq.self_ms": ("ms", "self", ["noeth.unit_quotient_seq"]),
    "noeth.krull_verdict.self_ms": ("ms", "self", ["noeth.krull_verdict"]),
}

# the workload each layer exists for: a traced run of that workload fails
# when the layer's wrapped functions were never called
DESIGNATED = {"matrices": "fg_engine", "abelian": "fg_engine",
              "prufer": "spectral_trees", "scattered": "scattered_strata",
              "cli": "small_batch", "noeth": "small_batch"}


def _entry_bits(*mats) -> int:
    return max((abs(x).bit_length() for m in mats for row in m.entries for x in row),
               default=0)


def _snf_hook(tr, idx, args, result):
    m = args[0]
    tr.sizes[idx] = f"{m.rows}x{m.cols}"
    tr.stat_max("snf.max_dim", max(m.rows, m.cols))
    tr.stat_max("snf.max_entry_bits", _entry_bits(*result))


def _hnf_hook(tr, idx, args, result):
    tr.stat_max("column_hnf.max_entry_bits", _entry_bits(result))


def _nodes_hook(tr, idx, args, result):
    tr.stats["nodes_visited"] = tr.stats.get("nodes_visited", 0) + len(result)


_HOOKS = {"matrices.snf": _snf_hook, "matrices.column_hnf": _hnf_hook,
          "prufer.SpecTree.nodes": _nodes_hook}


class Tracer:
    """Spans and per-name aggregates of one traced pass."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.stats: dict[str, int] = {}
        self.sizes: dict[int, str] = {}     # span index -> argument size label
        self.request = -1
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_request = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self._open: list[int] = []          # indices of the open spans
        self._child: list[float] = []       # child time of each open span

    def stat_max(self, key: str, value: int) -> None:
        if value > self.stats.get(key, 0):
            self.stats[key] = value

    def name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, fn, nid: int, hook):
        perf = time.perf_counter
        open_, child_, calls, self_s = self._open, self._child, self.calls, self.self_s
        s_name, s_parent, s_req = self.span_name, self.span_parent, self.span_request
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            idx = len(s_name)
            s_name.append(nid)
            s_parent.append(open_[-1] if open_ else -1)
            s_req.append(self.request)
            s_end.append(0.0)
            open_.append(idx)
            child_.append(0.0)
            t0 = perf()
            s_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                s_end[idx] = t1
                open_.pop()
                dur = t1 - t0
                calls[nid] += 1
                self_s[nid] += dur - child_.pop()
                if child_:
                    child_[-1] += dur
            if hook is not None:
                h0 = perf()
                hook(self, idx, args, result)
                if child_:
                    # keep the statistic's own cost out of the parent's self time
                    child_[-1] += perf() - h0
            return result

        update_wrapper(wrapper, fn)
        return wrapper

    def drop_spans(self) -> None:
        """Free the recorded spans, keeping the aggregates."""
        for arr in (self.span_name, self.span_parent, self.span_request,
                    self.span_start, self.span_end):
            del arr[:]
        self.sizes.clear()

    # -- aggregates --------------------------------------------------------

    def _ids(self, names) -> list[int]:
        return [i for i, n in enumerate(self.names) if n in names]

    def layer_calls(self, layer: str) -> int:
        return sum(c for n, c in zip(self.names, self.calls) if n.startswith(layer + "."))

    def metrics(self) -> dict[str, float]:
        out = {}
        for metric, (_, how, source) in LAYER_METRICS.items():
            if how == "self":
                out[metric] = sum(self.self_s[i] for i in self._ids(source)) * 1000.0
            elif how == "calls":
                out[metric] = sum(self.calls[i] for i in self._ids(source))
            else:
                out[metric] = self.stats.get(source, 0)
        return out

    def exact_counts(self) -> dict[str, int]:
        """The counters that must repeat exactly for the same inputs."""
        counts = {n: c for n, c in zip(self.names, self.calls)}
        counts.update(self.stats)
        return counts

    def span_durations(self, name: str):
        """``(span index, request id, seconds)`` of every span of ``name``."""
        nid = self.names.index(name)
        return [(i, self.span_request[i], self.span_end[i] - self.span_start[i])
                for i, n in enumerate(self.span_name) if n == nid]

    def write_spans(self, path, requests: list[dict]) -> None:
        """Write the spans as JSON columns: ``span_name`` indexes ``names``,
        ``parent`` is a span index (-1 for a request's root span),
        ``request`` indexes ``requests``; times are microseconds from the
        first span."""
        base = self.span_start[0] if self.span_start else 0.0
        doc = {"names": self.names, "requests": requests,
               "span_name": self.span_name.tolist(),
               "parent": self.span_parent.tolist(),
               "request": self.span_request.tolist(),
               "start_us": [round((t - base) * 1e6, 1) for t in self.span_start],
               "end_us": [round((t - base) * 1e6, 1) for t in self.span_end]}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _igl_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "igl" or name.startswith("igl."))]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target for the duration of the block.  Raises
    ``LookupError`` when a named function is missing, so a rename in
    ``igl`` cannot silently drop a layer from the trace."""
    modules = _igl_modules()
    undo: list[tuple[object, str, object]] = []
    try:
        for layer, quals in TARGETS.items():
            mod = sys.modules.get(f"igl.{layer}")
            if mod is None:
                raise LookupError(f"igl.{layer} is not imported")
            for qual in quals:
                name = f"{layer}.{qual}"
                nid = tracer.name_id(name)
                hook = _HOOKS.get(name)
                if "." in qual:
                    cls_name, attr = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = vars(cls).get(attr) if isinstance(cls, type) else None
                    if raw is None:
                        raise LookupError(f"{name} not found")
                    if isinstance(raw, cached_property):
                        new = cached_property(tracer.wrap(raw.func, nid, hook))
                        new.__set_name__(cls, attr)
                    else:
                        new = tracer.wrap(raw, nid, hook)
                    undo.append((cls, attr, raw))
                    setattr(cls, attr, new)
                    continue
                orig = getattr(mod, qual, None)
                if not callable(orig) or getattr(orig, "__module__", None) != mod.__name__:
                    raise LookupError(f"{name} not found")
                wrapped = tracer.wrap(orig, nid, hook)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is orig:
                            undo.append((m, key, orig))
                            setattr(m, key, wrapped)
        yield tracer
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)
