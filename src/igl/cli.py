"""Batch front end: the instance schema, one table (``FIELDS``) read by one
walker (``read``); one table, ``KINDS``, that feeds each kind's parse to
the decider and to the ``verify`` check of the layer owning that kind;
rendering; argv; and the built-in corpus.  No freeness
rule, certificate step or check is written here.

Commands::

    igl decide <path> [--format human|json] [--trace rules|full]
    igl expr   <path>
    igl verify <path> [--format human|json]
    igl selftest [--format human|json]
    igl [<command>] -h|--help

One table, ``COMMANDS``, names each command's handler, whether it takes
a path, and the values each option allows, the first one its default.
``_read_argv`` reads argv against it in one pass, and the help text and
the usage errors are built from it.  An option is written ``--opt value``
or ``--opt=value``, under any unique prefix of its name, before or after
the path; the last of a repeated option wins, and ``--`` ends the
options, so that a path may start with ``-``.  ``main(argv)`` returns
the exit status and raises no ``SystemExit``.

``<path>`` is a UTF-8 JSON instance file (schema version ``"v": 1``) or a
directory of them.  Exit codes: 2 for an argv that the table does not
read (a usage line and ``igl: error: ...`` on stderr), for a path that
cannot be read and for parse/schema errors (``error: <file>: <path>:
<problem>``, the JSON path of the value at fault; ``verify`` too exits 2
on a malformed instance of any kind), 3 for precondition violations, 1
when ``verify`` has a failing check or the ``selftest`` corpus is not
green, 4 for an internal error (any other exception, reported in one
line), 0 otherwise (help included) -- an ``Unknown`` verdict is a result,
not an error.  Each file of a directory is taken on its own: a file that
fails prints its line, and the run exits with the largest code.  A
closed stdout ends the ``igl`` process silently by ``SIGPIPE``.
``verify``'s checks are comparisons, not ``assert`` statements, so its
exit code is the same under ``python -O``.
"""

from __future__ import annotations

import json
import re
import sys
import time
from itertools import chain
from json.encoder import encode_basestring
from math import isfinite
from pathlib import Path

from . import abelian, noeth, prufer, scattered, valgroup
from .corpus import CASES
from .errors import (ANY, ENUM, FLAG, INT, RECORD, RECORDS, SLOTS, STR, STRATA, VECTORS,
                     DiagramError, Field, IglError, PreconditionError, SchemaError, unknown_key)
from .matrices import IntMatrix
from .valgroup import CertStep


class Report:
    __slots__ = ("name", "kind", "verdict", "expr", "certificate", "metadata", "elapsed_ms")

    def __init__(self, name: str, kind: str, verdict: str, expr: str | None,
                 certificate: list[CertStep], metadata: dict, elapsed_ms: float) -> None:
        self.name, self.kind, self.verdict, self.expr = name, kind, verdict, expr
        self.certificate, self.metadata, self.elapsed_ms = certificate, metadata, elapsed_ms

    def to_dict(self, trace_full: bool) -> dict:
        """The report as JSON data.  Steps that render alike, by rule and
        statement or under ``trace_full`` whole, share one dict, which
        ``canonical_json`` writes once."""
        steps: dict = {}
        certificate = []
        for s in self.certificate:
            key = s if trace_full else s[:2]
            d = steps.get(key)
            if d is None:
                d = steps[key] = s.as_dict(trace_full)
            certificate.append(d)
        return {
            "v": 1,
            "name": self.name,
            "kind": self.kind,
            "verdict": self.verdict,
            "expr": self.expr,
            "certificate": certificate,
            "metadata": self.metadata,
            "elapsed_ms": self.elapsed_ms,
        }


def canonical_json(obj) -> str:
    """Exactly ``json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=False)``,
    written here because the standard library falls back to its pure-Python
    encoder whenever ``indent`` is set.  It takes what reports hold (dicts with
    ``str`` keys, lists, tuples, ``str``, ``int``, ``float``, ``bool``, ``None``)."""
    out: list[str] = []
    _emit(obj, "\n", out)
    return "".join(out)


# every scalar is written as the stdlib encoder writes it: a string by its
# C routine, JSON's three constants are looked up, and a finite float is
# its repr, while ``json.dumps`` owns the spellings of the non-finite ones
_SCALARS = {str: encode_basestring, int: int.__repr__,
            float: lambda x: float.__repr__(x) if isfinite(x) else json.dumps(x),
            bool: {True: "true", False: "false"}.__getitem__,
            type(None): {None: "null"}.__getitem__}


def _emit(x, nl: str, out: list[str]) -> None:
    # ``nl`` is the line break and indent of ``x``'s own level; anything
    # but the types above, and a key that is no ``str``, is a ``TypeError``
    scalar = _SCALARS.get(type(x))
    if scalar is not None:
        out.append(scalar(x))
        return
    inner = nl + "  "
    if type(x) is dict:
        sep = "{" + inner
        for k in sorted(x):
            out.append(sep + encode_basestring(k) + ": ")
            _emit(x[k], inner, out)
            sep = "," + inner
        out.append(nl + "}" if x else "{}")
    elif type(x) is list or type(x) is tuple:
        # a list that holds one object more than once (a report's equal
        # certificate steps) writes it once and copies its text, kept by
        # object: every element of the list has the same indent
        texts = {} if len(x) > 1 and len(x) > len(set(map(id, x))) else None
        sep = "[" + inner
        for v in x:
            out.append(sep)
            if texts is None:
                _emit(v, inner, out)
            else:
                text = texts.get(id(v))
                if text is None:
                    part: list[str] = []
                    _emit(v, inner, part)
                    text = texts[id(v)] = "".join(part)
                out.append(text)
            sep = "," + inner
        out.append(nl + "]" if x else "[]")
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Deciding and verifying: each kind's parse fed to its layer (``KINDS``)
# ---------------------------------------------------------------------------

def decide_payload(payload: dict, name: str) -> Report:
    kind = validate_envelope(payload)
    started = time.perf_counter()
    d = KINDS[kind][0](payload)
    meta = {"source": payload["source"]} if "source" in payload else {}
    meta.update(d.metadata)
    expr = d.text if d.text is not None or d.expr is None else valgroup.render_normal(d.expr)
    elapsed = (time.perf_counter() - started) * 1000.0
    return Report(name=name, kind=kind, verdict=d.verdict.value, expr=expr,
                  certificate=list(d.certificate), metadata=meta,
                  elapsed_ms=round(elapsed, 3))


def verify_payload(payload: dict, name: str) -> list[valgroup.Check]:
    try:
        return KINDS[validate_envelope(payload)][1](payload)
    except DiagramError as exc:
        if payload["kind"] != "group_diagram":  # another kind's refusal is no check: exit 3
            raise
        # the engine refused the diagram while it was parsed, built or checked: its one
        # check fails
        return [(abelian.DIAGRAM_CHECKS[payload["check"]], False, str(exc))]


# kind -> (decide, check), in the order the schema error lists the kinds; each
# feeds one parse to a function of the owning layer, looked up when called
KINDS = {
    "prufer_tree": (lambda p: prufer.decide_tree(*parse_prufer(p)),
                    lambda p: prufer.check_tree(parse_prufer(p)[0])),
    "noeth_local": (lambda p: noeth.decide_noeth(parse_noeth(p)),
                    lambda p: noeth.check_noeth(parse_noeth(p))),
    "scattered_space": (lambda p: scattered.decide_scattered(parse_scattered(p)),
                        lambda p: scattered.check_space(parse_scattered(p))),
    "valuation": (lambda p: valgroup.decide_valuation(*parse_valuation(p)),
                  lambda p: abelian.check_valuation(parse_valuation(p)[0])),
    "group_diagram": (lambda p: abelian.decide_diagram(*parse_diagram(p)),
                      lambda p: abelian.check_diagram(*parse_diagram(p))),
    "krull": (lambda p: noeth.krull_verdict(parse_krull(p)),
              lambda p: noeth.check_krull(parse_krull(p))),
}


# ---------------------------------------------------------------------------
# Payload parsing: one table of fields, one walker, and the facts that
# relate fields
# ---------------------------------------------------------------------------

_PRIMES = (2, noeth.PRIME_BOUND - 1)
_GROUP = Field(RECORD, True, record="group")
_MAP = Field(VECTORS, True)  # a map's matrix: its groups give its shape
_TRUE, _FALSE, _UNDECLARED = Field(FLAG, default=True), Field(FLAG, default=False), Field(FLAG)

# record -> its fields, in the order they are read; a file holds the
# envelope's and its kind's.  Each bound caps the work a short file can ask
# for: a group with no relators is Z^generators (the benchmark's largest
# has 24), a field's order p^r has at most as many bits as r may be large,
# and an integer of an ordinal or a stratum ``scattered.MAX_DIGITS`` digits.
FIELDS = {
    "envelope": {"v": Field(INT, True, bound=(1, 1)),
                 "kind": Field(ENUM, True, bound=tuple(KINDS)),
                 "name": Field(STR), "source": Field(STR)},  # name: else the file's stem
    "prufer_tree": {"root": Field(RECORD, True, record="tree node"),
                    "question": Field(ENUM, False, "inv", ("inv", "div", "strongly_discrete")),
                    "locally_finite": _TRUE, "codim_finite": _FALSE,
                    "t_finite_character": _UNDECLARED},
    "noeth_local": {"k": Field(RECORD, True, record="field description"),
                    "branches": Field(RECORDS, True, bound=1, record="branch"),
                    "integrally_closed": _FALSE, "conductor_nonzero": _TRUE, "local": _TRUE},
    "scattered_space": {"bound": Field(STR, True, bound=scattered.MAX_DIGITS),
                        "labels": Field(STRATA, True, bound=scattered.MAX_DIGITS)},
    "valuation": {"tower": Field(SLOTS, True, bound=0),
                  "group": Field(ENUM, False, "inv", ("inv", "div")),
                  "maximal_principal": _UNDECLARED, "maximal_branched": _TRUE},
    "group_diagram": {"check": Field(ENUM, True, bound=tuple(abelian.DIAGRAM_CHECKS)),
                      **{term: Field(RECORD, "check", record=term)
                         for term in abelian.DIAGRAM_CHECKS}},
    "krull": {"variant": Field(ENUM, False, "krull", ("krull", "dedekind", "UFD"))},
    "tree node": prufer.NODE_FIELDS,
    "field description": {"finite": Field(RECORD, record="finite"),
                          "opaque": Field(RECORD, record="opaque")},
    "finite": {"p": Field(INT, True, bound=_PRIMES), "r": Field(INT, False, 1, (1, 4096))},
    "opaque": {"label": Field(STR, True), "characteristic": Field(INT, False, 0, (0, _PRIMES[1])),
               "unit_free": _UNDECLARED, "quotient_free": _UNDECLARED, "summand": _UNDECLARED},
    "branch": {"L": Field(RECORD, True, record="field description"),
               "e": Field(INT, False, 1, (1, None))},
    "group": {"generators": Field(INT, True, bound=(0, 4096)),
              "relators": Field(VECTORS, False, [], "generators")},
    "ses": {"left": _GROUP, "mid": _GROUP, "right": _GROUP, "inj": _MAP, "surj": _MAP},
    "snake": {"top": Field(RECORD, True, record="ses"), "bottom": Field(RECORD, True, record="ses"),
              "f": _MAP, "g": _MAP, "h": _MAP},
    "amalgam": {"g": _GROUP, "parts": Field(RECORDS, True, bound=1, record="amalgam part")},
    "amalgam part": {"group": _GROUP, "complement": _GROUP, "emb": _MAP, "proj": _MAP,
                     "retract": _MAP},
}

_ABSENT = object()
_INTS, _LISTS = {int}, {list}


def read(rec, record: str, where: str = "") -> list:
    """The values of ``rec``'s fields, read against ``FIELDS[record]`` in
    table order, an absent optional one's as its default: first that
    ``rec`` is an object, then its keys, then each field.  A record, and
    each item of a list of records, is left to its own read.  ``where`` is
    the record's path.  A message is formatted only on failure, and the
    keys are looked at only then, or when the fields read do not account
    for every key."""
    fields = FIELDS[record]
    if type(rec) is not dict:
        raise SchemaError(where, "must be an object")
    values, absent = [], 0
    try:
        for key, field in fields.items():
            value = rec.get(key, _ABSENT)
            kind, ok = field.type, True
            if value is _ABSENT:
                required = field.required
                if required is True or (required and rec[required] == key):
                    raise SchemaError(_at(where, key), "missing")
                value, absent = field.default, absent + 1
            elif kind is RECORD or kind is ANY:  # a record is read on its own
                if type(field.required) is str and rec[field.required] != key:
                    raise unknown_key(where, key)  # a term that its check does not name
            elif kind is FLAG:
                ok = type(value) is bool or (value is None and field.default is None)
            elif kind is INT:
                low, top = field.bound
                ok = type(value) is int and low <= value and (top is None or value <= top)
            elif kind is ENUM:
                ok = type(value) is str and value in field.bound
            elif kind is VECTORS:
                ok = type(value) is list
                n = rec[field.bound] if field.bound else None  # a field of the record gives it
                # every row at once; the row at fault is looked for only on failure
                if ok and not (set(map(type, value)) <= _LISTS
                               and set(map(type, chain.from_iterable(value))) <= _INTS
                               and (n is None or set(map(len, value)) <= {n})):
                    i = next(i for i, v in enumerate(value) if not (
                        type(v) is list and (n is None or len(v) == n)
                        and set(map(type, v)) <= _INTS))
                    raise SchemaError(f"{_at(where, key)}[{i}]", "must be an integer vector"
                                      + f" of length {n}" * (n is not None))
            elif kind is SLOTS or kind is RECORDS:
                ok = type(value) is list and len(value) >= field.bound
            else:
                ok = type(value) is (str if kind is STR else dict)
            if not ok:
                raise SchemaError(_at(where, key), field.expected())
            values.append(value)
    except SchemaError:
        _unknown_keys(rec, record, where)  # a record's keys come before its fields
        raise
    # a file holds its kind's keys and the envelope's, which its own read reads
    if len(rec) + absent != len(fields) and record != "envelope" and (
            where or not rec.keys() - fields.keys() <= FIELDS["envelope"].keys()):
        _unknown_keys(rec, record, where)
    return values


def _unknown_keys(rec: dict, record: str, where: str) -> None:
    """Refuse the first key of ``rec``, in document order, that its record
    lacks.  A file holds the envelope's keys and its kind's, which the
    kind's read checks."""
    fields, envelope = FIELDS[record], FIELDS["envelope"]
    for key in rec:
        if key not in fields and record != "envelope" and (where or key not in envelope):
            raise unknown_key(where, key)


def _at(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def load_payload(path: Path) -> dict:
    """The JSON object of an instance file; the command names the file."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read file ({exc})") from exc
    except ValueError as exc:  # bad JSON, or a number past the int-from-str digit limit
        raise SchemaError(str(exc)) from exc
    except RecursionError as exc:
        raise SchemaError("nested too deeply for the JSON decoder") from exc
    if type(payload) is not dict:
        raise SchemaError("the instance must be a JSON object")
    return payload


def validate_envelope(payload: dict) -> str:
    """The file's kind, read after its version; the kind's parse reads the
    file's keys and its other fields."""
    return read(payload, "envelope")[1]


def parse_field_desc(rec, where: str) -> noeth.FieldDesc:
    """A field description, ``finite`` or ``opaque``: a finite field's
    ``p`` is prime and its order has at most as many bits as its ``r`` may
    be large, and an opaque field's characteristic is 0 or a prime."""
    finite, opaque = read(rec, "field description", where)
    if (finite is None) is (opaque is None):
        raise SchemaError(where, "must hold 'finite' or 'opaque'"
                          + ", not both" * (finite is not None))
    if finite is None:
        field = noeth.OpaqueField(*read(opaque, "opaque", f"{where}.opaque"))
        if field.characteristic and not noeth._is_prime(field.characteristic):
            raise SchemaError(f"{where}.opaque.characteristic", "must be 0 or a prime")
        return field
    field = noeth.FiniteField(*read(finite, "finite", f"{where}.finite"))
    bits = FIELDS["finite"]["r"].bound[1]
    if not noeth._is_prime(field.p):
        raise SchemaError(f"{where}.finite.p", f"{field.p} is not prime")
    if field.order.bit_length() > bits:  # r is within its bound: p**r is cheap
        raise SchemaError(f"{where}.finite.r",
                          f"field order {field.p}^{field.r} has more than {bits} bits")
    return field


def parse_group(rec, where: str) -> abelian.FgGroup:
    n, relators = read(rec, "group", where)
    return abelian.FgGroup(n, IntMatrix.from_cols(relators, rows=n))


def parse_matrix(rec: list, rows: int, cols: int, where: str) -> IntMatrix:
    """A map's matrix, its entries checked by ``read`` and its shape here."""
    if len(rec) != rows:
        raise SchemaError(where, f"must be a matrix with {rows} rows")
    if not set(map(len, rec)) <= {cols}:
        i = next(i for i, row in enumerate(rec) if len(row) != cols)
        raise SchemaError(f"{where}[{i}]", f"must be an integer vector of length {cols}")
    return IntMatrix.from_rows(rec, cols=cols)


def _parse_hom(rec, src: abelian.FgGroup, tgt: abelian.FgGroup,
               where: str) -> abelian.FgHom:
    hom = abelian.FgHom(src, tgt, parse_matrix(rec, tgt.generators, src.generators, where))
    try:
        abelian.FgHom.__post_init__(hom)
    except DiagramError as exc:
        # the map is not well defined: name the matrix to fix
        raise DiagramError(f"{where}: {exc}") from exc
    return hom


def parse_ses(rec, where: str) -> abelian.ShortExactSeq:
    *groups, inj, surj = read(rec, "ses", where)
    left, mid, right = (parse_group(g, f"{where}.{k}") for g, k in zip(groups, FIELDS["ses"]))
    seq = abelian.ShortExactSeq(left, mid, right, _parse_hom(inj, left, mid, f"{where}.inj"),
                                _parse_hom(surj, mid, right, f"{where}.surj"))
    abelian.ShortExactSeq.__post_init__(seq)
    return seq


def parse_scattered(payload: dict) -> scattered.ScatteredSpace:
    """The bound, then each ``labels`` key in document order: a decimal
    stratum of at most the table's digits, named once, with a nonempty
    slot list.  Each distinct slot list is parsed once, as in
    ``tree_from_payload``: equal labels share one tower."""
    text, labels_rec = read(payload, "scattered_space")
    try:
        bound = scattered.parse_ordinal(text)
    except SchemaError as exc:
        raise exc.under("bound") from None
    digits = FIELDS["scattered_space"]["labels"].bound
    labels: dict[int, valgroup.ValueTower] = {}
    towers: dict[tuple, valgroup.ValueTower] = {}
    for key, slots in labels_rec.items():
        # a message is formatted only on failure
        if not (key.isascii() and key.isdigit()):
            raise SchemaError("labels", f"key {key!r} is not a decimal stratum index")
        if len(key) > digits:
            raise SchemaError("labels", f"key {key[:20]!r} has more than {digits} digits")
        if not (type(slots) is list and slots):
            raise SchemaError(f"labels.{key}", "must be a nonempty list of slots")
        stratum = int(key)
        if stratum in labels:
            raise SchemaError("labels", f"key {key!r} names stratum {stratum}, already labelled")
        names = tuple(slots)
        try:
            labels[stratum] = towers[names]
        except (KeyError, TypeError):  # a new slot list, or an unhashable slot, which
            # is never a slot name: the parse names it before anything is stored
            labels[stratum] = towers[names] = valgroup.ValueTower.from_names(
                slots, f"labels.{key}")
    return scattered.ScatteredSpace.interval(bound, labels)


def parse_noeth(payload: dict) -> noeth.NoethInstance:
    """Conductor data: each field as ``parse_field_desc`` reads it, branch
    by branch, then the facts that relate the fields, in each branch: one
    shared characteristic, ``k`` embedding into a finite ``L`` and no
    declaration that contradicts ``k``'s."""
    k, branch_recs, *flags = read(payload, "noeth_local")
    k = parse_field_desc(k, "k")
    branches = []
    for i, rec in enumerate(branch_recs):
        L, e = read(rec, "branch", f"branches[{i}]")
        branches.append(noeth.Branch(parse_field_desc(L, f"branches[{i}].L"), e))
    for i, (L, _) in enumerate(branches):
        if L.characteristic != k.characteristic:
            raise SchemaError(f"branches[{i}].L", f"characteristic {L.characteristic} differs "
                              f"from k's {k.characteristic}")
        # the characteristic is shared, so k embeds when its degree divides
        if type(k) is type(L) is noeth.FiniteField and L.r % k.r:
            raise SchemaError(f"branches[{i}].L", f"{k.label} does not embed into {L.label}")
        # U(k) is a subgroup of U(L), and subgroups of free groups are free
        if type(k) is type(L) is noeth.OpaqueField and (k.unit_free, L.unit_free) == (False, True):
            raise SchemaError(f"branches[{i}].L.opaque.unit_free",
                              "contradictory declarations: true, but k.opaque.unit_free is "
                              "false, and U(k) is a subgroup of U(L)")
    return noeth.NoethInstance(k, tuple(branches), *flags)


def parse_valuation(payload: dict) -> tuple:
    tower, *rest = read(payload, "valuation")
    return (valgroup.ValueTower.from_names(tower, "tower"), *rest)


def parse_prufer(payload: dict) -> tuple:
    root, *rest = read(payload, "prufer_tree")
    return (prufer.tree_from_payload(root), *rest)


def parse_krull(payload: dict) -> str:
    return read(payload, "krull")[0]


def parse_diagram(payload: dict) -> tuple:
    """``(check, *terms)``, each term built and checked in document order."""
    check = read(payload, "group_diagram")[0]
    rec = payload[check]
    if check == "group":
        return check, parse_group(rec, "group")
    if check == "ses":
        return check, parse_ses(rec, "ses")
    if check == "snake":
        top, bottom, *maps = read(rec, "snake", "snake")
        top, bottom = parse_ses(top, "snake.top"), parse_ses(bottom, "snake.bottom")
        return (check, top, bottom, *(_parse_hom(m, src, tgt, f"snake.{name}") for m, src, tgt, name
                                       in zip(maps, top[:3], bottom[:3], "fgh")))
    g, part_recs = read(rec, "amalgam", "amalgam")
    g = parse_group(g, "amalgam.g")
    parts = []
    for i, part in enumerate(part_recs):
        where = f"amalgam.parts[{i}]"
        grp, comp, emb, proj, retract = read(part, "amalgam part", where)
        grp, comp = parse_group(grp, f"{where}.group"), parse_group(comp, f"{where}.complement")
        parts.append(abelian.AmalgamPart(grp, _parse_hom(emb, g, grp, f"{where}.emb"), comp,
                                         _parse_hom(proj, grp, comp, f"{where}.proj"),
                                         _parse_hom(retract, grp, g, f"{where}.retract")))
    return check, g, parts


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_report_human(r: Report, trace_full: bool) -> str:
    lines = [f"instance: {r.name} ({r.kind})",
             f"verdict:  {r.verdict}"]
    if r.expr is not None:
        lines.append(f"group:    {r.expr}")
    for key, value in sorted(r.metadata.items()):
        lines.append(f"{key}: {value}")
    lines.append("certificate:")
    for i, step in enumerate(r.certificate, 1):
        lines.append(f"  {i}. {step.rule} — {step.statement}")
        if trace_full and step.inputs:
            for k, v in step.inputs:
                lines.append(f"       {k} = {v}")
    lines.append(f"timing:   {r.elapsed_ms} ms")
    return "\n".join(lines)


def _files(path_arg: str) -> list[Path]:
    """The instance file at the path, or each ``.json`` file of a
    directory in name order."""
    path = Path(path_arg)
    try:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    except OSError as exc:  # such as a name too long for the file system
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    if not files:
        raise SchemaError(f"{path}: directory contains no .json instances")
    return files


def _failure(exc: Exception, file: Path | None = None) -> tuple[int, str]:
    """The exit code of an error and its one stderr line, which names the
    file of a schema error."""
    if isinstance(exc, SchemaError):
        return 2, f"error: {file}: {exc}" if file else f"error: {exc}"
    if isinstance(exc, PreconditionError):
        return 3, f"precondition violated: {exc}"
    # a fault in igl, not in the input: one line, never a traceback
    return 4, " ".join(f"internal error: {type(exc).__name__}: {exc}".split())


def _each(path_arg: str, work) -> tuple[list, int]:
    """``work(payload, name)`` of each instance file of the path, each on
    its own: a file that fails prints its one stderr line instead.  The
    results of the files that succeed, and the largest exit code among
    those that fail (0 when none does)."""
    results, code = [], 0
    for f in _files(path_arg):
        try:
            payload = load_payload(f)
            results.append(work(payload, payload.get("name", f.stem)))
        except Exception as exc:
            failed, line = _failure(exc, f)
            print(line, file=sys.stderr)
            code = max(code, failed)
    return results, code


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_decide(path: str, format: str, trace: str) -> int:
    """decide each instance: verdict, group and certificate"""
    reports, code = _each(path, decide_payload)
    trace_full = trace == "full"
    if reports and format == "json":
        out = [r.to_dict(trace_full) for r in reports]
        print(canonical_json(out if len(out) > 1 else out[0]))
    elif reports:
        print("\n\n".join(render_report_human(r, trace_full) for r in reports))
    return code


def cmd_expr(path: str) -> int:
    """print the group expression of each instance"""
    def expr(payload: dict, name: str) -> None:
        report = decide_payload(payload, name)
        print(report.expr if report.expr is not None else "(none)")
    return _each(path, expr)[1]


def cmd_verify(path: str, format: str) -> int:
    """replay the finitely generated sub-claims of each instance"""
    all_results, code = _each(path, lambda payload, name: (name, verify_payload(payload, name)))
    if not all_results:
        return code
    if format == "json":
        out = [{"name": n,
                "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in cs]}
               for n, cs in all_results]
        print(canonical_json(out if len(out) > 1 else out[0]))
    else:
        for n, cs in all_results:
            print(f"instance: {n}")
            for c, ok, d in cs:
                print(f"  {'pass' if ok else 'FAIL'}  {c}: {d}")
    return max(code, 0 if all(ok for _, cs in all_results for _, ok, _ in cs) else 1)


def _run_case(case) -> tuple[bool, str]:
    """Whether a corpus case meets its expectation, and what it gave; an
    error never does."""
    try:
        if case.direct is not None:
            got = case.direct()
            return got == case.expected, got
        report = decide_payload(case.payload, case.name)
    except IglError as exc:
        return False, f"error: {exc}"
    ok = report.verdict == case.expected
    if ok and case.expected_expr is not None and report.expr != case.expected_expr:
        return False, f"{report.verdict} [{report.expr}]"
    return ok, report.verdict


def cmd_selftest(format: str) -> int:
    """run the built-in corpus of worked examples"""
    results = [(case.name, *_run_case(case), case.expected) for case in CASES]
    green = all(ok for _, ok, _, _ in results)
    if format == "json":
        print(canonical_json({
            "green": green,
            "cases": [{"name": n, "ok": ok, "got": g, "expected": e}
                      for n, ok, g, e in results]}))
    else:
        for n, ok, g, e in results:
            mark = "ok  " if ok else "FAIL"
            extra = "" if ok else f" (expected {e}, got {g})"
            print(f"{mark} {n} — {g if ok else e}{extra}")
        print(f"{sum(1 for _, ok, _, _ in results if ok)}/{len(results)} corpus cases green")
    return 0 if green else 1


# ---------------------------------------------------------------------------
# The command line: one table, read by one pass over argv
# ---------------------------------------------------------------------------

_FORMATS = ("human", "json")

# command -> (handler, takes a path, {option: allowed values}); an option's
# first value is its default, and the handler takes every option by name
COMMANDS = {
    "decide": (cmd_decide, True, {"format": _FORMATS, "trace": ("rules", "full")}),
    "expr": (cmd_expr, True, {}),
    "verify": (cmd_verify, True, {"format": _FORMATS}),
    "selftest": (cmd_selftest, False, {"format": _FORMATS}),
}


class _Refused(Exception):
    """An argv that the command table does not read: exit 2.  Its args
    are the command whose usage line to show (``None`` for ``igl``'s
    own) and the message."""


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: igl [-h] {" + ",".join(COMMANDS) + "} ..."
    _, takes_path, options = COMMANDS[command]
    return " ".join(["usage: igl", command, "[-h]",
                     *(f"[--{o} {{{','.join(v)}}}]" for o, v in options.items()),
                     *(["path"] * takes_path)])


def _help(command: str | None) -> int:
    lines = [_usage(command), "", "decide freeness of ideal groups from symbolic instances"]
    for name in COMMANDS if command is None else [command]:
        fn, _, options = COMMANDS[name]
        lines += ["", "  " + _usage(name).removeprefix("usage: "), f"      {fn.__doc__ or ''}",
                  *(f"      --{o} defaults to {v[0]}" for o, v in options.items())]
    lines += ["", "A path is an instance file or a directory of them.  An option takes",
              "its value as --opt value or --opt=value, under any unique prefix of",
              "its name.  Exit status: 0 done, 1 a failing check or corpus case,",
              "2 bad arguments or input, 3 a precondition violated, 4 an internal",
              "error."]
    print("\n".join(lines))
    return 0


# argparse's test of an argument that reads as a number, not an option
_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _option(arg: str, command: str | None) -> tuple[str | None, str | None] | None:
    """How ``arg`` reads among the options of ``command`` (with ``None``,
    of ``igl`` itself, which has only the help): ``None`` for a
    positional, else ``(option, attached value or None)`` with option
    ``None`` for an unknown one.  A long option is also named by a unique
    prefix and takes ``=value``; ``-h`` takes no value but more ``h``s.
    A lone ``-``, a number and text with a space are positionals, as
    argparse reads them."""
    if arg[:1] != "-" or arg == "-" or arg == "--":
        return None
    if arg[1] == "-":
        longs = ["--help", *(f"--{o}" for o in (COMMANDS[command][2] if command else ()))]
        name, eq, value = arg.partition("=")
        hits = [name] if name in longs else [o for o in longs if o.startswith(name)]
        if len(hits) > 1:
            raise _Refused(command, f"ambiguous option: {arg} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    elif arg[1] == "h":
        return "-h", arg[2:] or None
    if " " in arg or _NUMBER.match(arg):
        return None
    return None, None


def _read_help(command: str | None, name: str, value: str | None):
    if value is not None and (name == "--help" or value.strip("h")):
        raise _Refused(command, f"argument -h/--help: ignored explicit argument {value!r}")
    return _help, [command], {}


def _read_argv(argv: list[str]):
    """``(handler, positional arguments, options)`` of ``argv``, read
    against ``COMMANDS`` in one pass by argparse's conventions, or
    ``_Refused``: options before or after the path, the last of a
    repeated option winning, and ``--`` ending the options, so that a
    path may start with ``-``.  An unknown option or a second positional
    is refused only after the whole argv is read, so that a later
    ``-h`` still prints the help."""
    stray: list[str] = []
    i, n = 0, len(argv)
    # before the command only -h/--help is an option
    while i < n and (opt := _option(argv[i], None)) is not None:
        if opt[0] is not None:
            return _read_help(None, *opt)
        stray.append(argv[i])
        i += 1
    if i == n:
        raise _Refused(None, "the following arguments are required: command")
    command = argv[i]
    if command not in COMMANDS:
        raise _Refused(None, f"argument command: invalid choice: {command!r} "
                             f"(choose from {', '.join(COMMANDS)})")
    fn, takes_path, options = COMMANDS[command]
    values = {o: allowed[0] for o, allowed in options.items()}
    path = None
    after_path = -1   # the index just past the path
    i += 1
    while i < n:
        arg = argv[i]
        i += 1
        if arg == "--":
            # every later argument is a positional: the first is the path if
            # none came yet; next to the path, the -- itself is consumed
            if takes_path and path is None and i < n:
                path, i = argv[i], i + 1
            elif i - 1 != after_path:
                stray.append(arg)
            stray += argv[i:]
            break
        opt = _option(arg, command)
        if opt is None:
            if takes_path and path is None:
                path, after_path = arg, i
            else:
                stray.append(arg)
            continue
        name, value = opt
        if name is None:
            stray.append(arg)
        elif name == "-h" or name == "--help":
            return _read_help(command, name, value)
        else:
            if value is None:
                if i == n:
                    raise _Refused(command, f"argument {name}: expected one argument")
                value, i = argv[i], i + 1
            allowed = options[name[2:]]
            if value not in allowed:
                raise _Refused(command, f"argument {name}: invalid choice: {value!r} "
                                        f"(choose from {', '.join(allowed)})")
            values[name[2:]] = value
    if takes_path and path is None:
        raise _Refused(command, "the following arguments are required: path")
    if stray:
        raise _Refused(command, f"unrecognized arguments: {' '.join(stray)}")
    return fn, [path] * takes_path, values


def main(argv: list[str] | None = None) -> int:
    """Run the command that ``argv`` (default ``sys.argv[1:]``) names and
    return its exit status; an argv that ``COMMANDS`` does not read is
    exit 2, with the usage line and one ``igl: error:`` line on stderr."""
    try:
        fn, args, options = _read_argv(sys.argv[1:] if argv is None else argv)
    except _Refused as exc:
        command, message = exc.args
        print(f"{_usage(command)}\nigl: error: {message}", file=sys.stderr)
        return 2
    try:
        return fn(*args, **options)
    except Exception as exc:
        code, line = _failure(exc)
        print(line, file=sys.stderr)
        return code


def entrypoint() -> None:  # pragma: no cover - console script shim
    import signal
    # a reader that closes stdout ends igl as it ends any filter: by SIGPIPE
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
