"""Batch front end: the instance schema; one table, ``KINDS``, that feeds
each kind's parse to the decider and to the ``verify`` check of the layer
owning that kind; rendering; argv; and the built-in corpus.  No freeness
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
cannot be read and for parse/schema errors (with a line diagnostic when
the file does not even parse; ``verify`` too exits 2 on a malformed
instance of any kind), 3 for precondition violations, 1 when ``verify``
has a failing check or the ``selftest`` corpus is not green, 4 for an
internal error (any other exception, reported in one line), 0 otherwise
(help included) -- an ``Unknown`` verdict is a result, not an error.  A
closed stdout ends the ``igl`` process silently by ``SIGPIPE``.
``verify``'s checks are comparisons, not ``assert`` statements, so its
exit code is the same under ``python -O``.
"""

from __future__ import annotations

import json
import re
import sys
import time
from json.encoder import encode_basestring
from pathlib import Path

from . import abelian, noeth, prufer, scattered, valgroup
from .corpus import CASES
from .errors import DiagramError, IglError, PreconditionError, SchemaError, read_flag
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


# every scalar is written by a C routine, the same bytes as the stdlib
# encoder: JSON's three constants are looked up, and a float keeps
# ``json.dumps``, which owns the spellings of the non-finite ones
_SCALARS = {str: encode_basestring, int: int.__repr__, float: json.dumps,
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
# Payload parsing
# ---------------------------------------------------------------------------

def _expect(cond: bool, msg: str) -> None:
    if not cond:
        raise SchemaError(msg)


def _flag(payload: dict, key: str, default: bool | None) -> bool | None:
    return read_flag(payload, key, default, f"field {key!r}")


def _is_int(x) -> bool:
    # JSON true/false are Python bools, a subclass of int; the schema's
    # integers never accept them
    return type(x) is int


def _is_int_vector(v, n: int) -> bool:
    return isinstance(v, list) and len(v) == n and set(map(type, v)) <= {int}


def load_payload(path: Path) -> dict:
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"{path}: cannot read file ({exc})") from exc
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(
            f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except ValueError as exc:  # a number past the int-from-str digit limit
        raise SchemaError(f"{path}: {exc}") from exc
    except RecursionError as exc:
        raise SchemaError(f"{path}: nested too deeply for the JSON decoder") from exc
    _expect(isinstance(payload, dict), f"{path}: the instance must be a JSON object")
    return payload


# record -> the keys it may hold.  A key outside its record's set is a schema
# error (exit 2), so a misspelt optional key never silently takes its default.
# A file holds the envelope's keys and its kind's; a ``group_diagram`` file
# holds the one term that its ``check`` names.  Scattered ``labels`` keys are
# strata, data that ``parse_scattered`` reads, not fields.
KEYS = {
    "envelope": ("v", "kind", "name", "source"),
    "prufer_tree": ("root", "question", "locally_finite", "codim_finite",
                    "t_finite_character"),
    "noeth_local": ("k", "branches", "integrally_closed", "conductor_nonzero", "local"),
    "scattered_space": ("bound", "labels"),
    "valuation": ("tower", "group", "maximal_principal", "maximal_branched"),
    "group_diagram": ("check",),
    "krull": ("variant",),
    "tree node": tuple(sorted(prufer.NODE_KEYS)),
    "field description": ("finite", "opaque"),
    "finite": ("p", "r"),
    "opaque": ("label", "characteristic", "unit_free", "quotient_free", "summand"),
    "branch": ("L", "e"),
    "group": ("generators", "relators"),
    "ses": ("left", "mid", "right", "inj", "surj"),
    "snake": ("top", "bottom", "f", "g", "h"),
    "amalgam": ("g", "parts"),
    "amalgam part": ("group", "complement", "emb", "proj", "retract"),
}
_KEYS = {record: frozenset(keys) for record, keys in KEYS.items()}


def _known_keys(rec: dict, keys: frozenset, where: str | None) -> None:
    """Refuse the first key of ``rec``, in document order, that ``keys``
    lacks, spelt as the record's other diagnostics spell its fields: under
    ``where``, or as ``field 'x'`` for a file's own (``where`` is ``None``);
    a key that is no name is quoted, so the message stays one line.  The
    message is formatted only on failure."""
    if keys.issuperset(rec):
        return
    key = next(k for k in rec if k not in keys)
    if where is None:
        raise SchemaError(f"field {key!r}: unknown key")
    raise SchemaError(f"{where}.{key}: unknown key" if key.isidentifier()
                      else f"{where}: unknown key {key!r}")


def validate_envelope(payload: dict) -> str:
    """The file's kind, read after its version; then its keys are checked,
    before any other field (a ``group_diagram``'s by ``parse_diagram``,
    once its check names its term)."""
    _expect(_is_int(payload.get("v")) and payload["v"] == 1,
            "field 'v': schema version must be 1")
    kind = payload.get("kind")
    _expect(isinstance(kind, str) and kind in KINDS,
            f"field 'kind': expected one of {', '.join(KINDS)}")
    if kind != "group_diagram":
        _known_keys(payload, _FILE_KEYS[kind], None)
    return kind


_BEYOND_BOUND = f"characteristic is not below the supported bound {noeth.PRIME_BOUND}"


def parse_field_desc(rec: dict, where: str) -> noeth.FieldDesc:
    """A field description, its characteristic a prime below
    ``noeth.PRIME_BOUND`` (or 0 for an opaque field) and a finite field's
    order at most ``noeth.MAX_ORDER_BITS`` bits."""
    _expect(isinstance(rec, dict), f"{where}: must be an object")
    _known_keys(rec, _KEYS["field description"], where)
    if len(rec) > 1:
        raise SchemaError(f"{where}: a field description is 'finite' or 'opaque', not both")
    if "finite" in rec:
        f = rec["finite"]
        _expect(isinstance(f, dict), f"{where}.finite: needs integer 'p'")
        _known_keys(f, _KEYS["finite"], f"{where}.finite")
        _expect(_is_int(f.get("p")), f"{where}.finite: needs integer 'p'")
        _expect(_is_int(f.get("r", 1)), f"{where}.finite.r: must be an integer")
        field = noeth.FiniteField(f["p"], f.get("r", 1))
        _expect(field.p < noeth.PRIME_BOUND, _BEYOND_BOUND)
        _expect(noeth._is_prime(field.p), f"{field.p} is not prime")
        _expect(field.r >= 1, "field degree must be >= 1")
        # a degree above the cap already exceeds it; testing it first
        # spares computing p**r for a huge r
        _expect(field.r <= noeth.MAX_ORDER_BITS
                and field.order.bit_length() <= noeth.MAX_ORDER_BITS,
                f"field order p^{field.r} has more than {noeth.MAX_ORDER_BITS} bits")
        return field
    if "opaque" in rec:
        o = rec["opaque"]
        _expect(isinstance(o, dict), f"{where}.opaque: needs string 'label'")
        _known_keys(o, _KEYS["opaque"], f"{where}.opaque")
        _expect(isinstance(o.get("label"), str), f"{where}.opaque: needs string 'label'")
        _expect(_is_int(o.get("characteristic", 0)),
                f"{where}.opaque.characteristic: must be an integer")
        field = noeth.OpaqueField(
            label=o["label"],
            characteristic=o.get("characteristic", 0),
            **{key: read_flag(o, key, None, f"{where}.opaque.{key}")
               for key in ("unit_free", "quotient_free", "summand")})
        _expect(field.characteristic < noeth.PRIME_BOUND, _BEYOND_BOUND)
        _expect(field.characteristic == 0 or noeth._is_prime(field.characteristic),
                "characteristic must be 0 or a prime")
        return field
    raise SchemaError(f"{where}: expected a 'finite' or 'opaque' field description")


# A group with no relators is Z^generators, so a short file could set any
# amount of work; the benchmark's largest group has 24 generators.
MAX_GENERATORS = 4096


def parse_group(rec: dict, where: str) -> abelian.FgGroup:
    # a message is formatted only on failure: the relator check runs once
    # per relator
    if not isinstance(rec, dict):
        raise SchemaError(f"{where}: must be an object")
    _known_keys(rec, _KEYS["group"], where)
    n = rec.get("generators")
    if not (_is_int(n) and n >= 0):
        raise SchemaError(f"{where}.generators: must be a nonnegative integer")
    if n > MAX_GENERATORS:
        raise SchemaError(f"{where}.generators: at most {MAX_GENERATORS} are supported")
    relators = rec.get("relators", [])
    if not isinstance(relators, list):
        raise SchemaError(f"{where}.relators: must be a list of vectors")
    for i, r in enumerate(relators):
        if not _is_int_vector(r, n):
            raise SchemaError(f"{where}.relators[{i}]: must be an integer vector of length {n}")
    return abelian.FgGroup(n, IntMatrix.from_cols(relators, rows=n))


def parse_matrix(rec, rows: int, cols: int, where: str) -> IntMatrix:
    if not (isinstance(rec, list) and len(rec) == rows):
        raise SchemaError(f"{where}: must be a matrix with {rows} rows")
    for i, row in enumerate(rec):
        if not _is_int_vector(row, cols):
            raise SchemaError(f"{where}[{i}]: must be an integer row of length {cols}")
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


def parse_ses(rec: dict, where: str) -> abelian.ShortExactSeq:
    _expect(isinstance(rec, dict), f"{where}: must be an object")
    _known_keys(rec, _KEYS["ses"], where)
    for key in KEYS["ses"]:
        _expect(key in rec, f"{where}.{key}: missing")
    left = parse_group(rec["left"], f"{where}.left")
    mid = parse_group(rec["mid"], f"{where}.mid")
    right = parse_group(rec["right"], f"{where}.right")
    inj = _parse_hom(rec["inj"], left, mid, f"{where}.inj")
    surj = _parse_hom(rec["surj"], mid, right, f"{where}.surj")
    seq = abelian.ShortExactSeq(left, mid, right, inj, surj)
    abelian.ShortExactSeq.__post_init__(seq)
    return seq


def parse_scattered(payload: dict) -> scattered.ScatteredSpace:
    _expect(isinstance(payload.get("bound"), str), "field 'bound': must be an ordinal string")
    bound = scattered.parse_ordinal(payload["bound"])
    labels_rec = payload.get("labels")
    _expect(isinstance(labels_rec, dict), "field 'labels': must map strata to slot lists")
    labels: dict[int, valgroup.ValueTower] = {}
    # each distinct slot list is parsed once, as in ``tree_from_payload``:
    # equal labels share one tower
    towers: dict[tuple, valgroup.ValueTower] = {}
    for key, slots in labels_rec.items():
        # a message is formatted only on failure, as in ``parse_group``
        if not (key.isascii() and key.isdigit()):
            raise SchemaError(f"labels key {key!r}: must be a decimal stratum index")
        if not (isinstance(slots, list) and slots):
            raise SchemaError(f"labels[{key}]: must be a nonempty slot list")
        if len(key) > scattered.MAX_DIGITS:
            raise SchemaError(
                f"labels key {key[:20]!r}: more than {scattered.MAX_DIGITS} digits")
        stratum = int(key)
        if stratum in labels:
            raise SchemaError(f"labels key {key[:20]!r}: stratum {stratum} is already labelled")
        names = tuple(slots)
        try:
            labels[stratum] = towers[names]
        except KeyError:
            labels[stratum] = towers[names] = valgroup.ValueTower.from_names(slots)
        except TypeError:
            # an unhashable slot is never a slot name: the parse names it
            labels[stratum] = valgroup.ValueTower.from_names(slots)
    return scattered.ScatteredSpace.interval(bound, labels)


def parse_noeth(payload: dict) -> noeth.NoethInstance:
    """Conductor data: every field as ``parse_field_desc`` reads it and each
    exponent ``e >= 1``, branch by branch, then the flags, then the facts
    that relate the fields: one shared characteristic, ``k`` embedding
    into every finite ``L_i`` and no declaration that contradicts
    another."""
    _expect("k" in payload, "field 'k': missing residue field")
    k = parse_field_desc(payload["k"], "k")
    branches_rec = payload.get("branches")
    _expect(isinstance(branches_rec, list) and branches_rec,
            "field 'branches': must be a nonempty list")
    branches = []
    for i, b in enumerate(branches_rec):
        _expect(isinstance(b, dict), f"branches[{i}]: needs 'L'")
        _known_keys(b, _KEYS["branch"], f"branches[{i}]")
        _expect("L" in b, f"branches[{i}]: needs 'L'")
        e = b.get("e", 1)
        _expect(_is_int(e), f"branches[{i}].e: must be an integer")
        L = parse_field_desc(b["L"], f"branches[{i}].L")
        _expect(e >= 1, "conductor exponents must be >= 1")
        branches.append(noeth.Branch(L, e))
    inst = noeth.NoethInstance(
        residue=k, branches=tuple(branches),
        integrally_closed=_flag(payload, "integrally_closed", False),
        conductor_nonzero=_flag(payload, "conductor_nonzero", True),
        local=_flag(payload, "local", True))
    _expect(all(b.field.characteristic == k.characteristic for b in branches),
            "residue fields of an extension share their characteristic")
    if isinstance(k, noeth.FiniteField):
        for b in branches:
            # the characteristic is shared, so k embeds when its degree divides
            if isinstance(b.field, noeth.FiniteField) and b.field.r % k.r != 0:
                raise SchemaError(f"{k.label} does not embed into {b.field.label}")
    elif k.unit_free is False:
        # U(k) is a subgroup of every U(L_i), and subgroups of free
        # groups are free
        for i, b in enumerate(branches):
            if isinstance(b.field, noeth.OpaqueField) and b.field.unit_free is True:
                raise SchemaError(
                    f"contradictory declarations: k.opaque.unit_free is false but "
                    f"branches[{i}].L.opaque.unit_free is true, and U(k) is a "
                    f"subgroup of U(L)")
    return inst


def parse_valuation(payload: dict) -> tuple:
    tower_rec = payload.get("tower")
    _expect(isinstance(tower_rec, list), "field 'tower': must be a list of slots")
    tower = valgroup.ValueTower.from_names(tower_rec)
    group = payload.get("group", "inv")
    _expect(group in ("inv", "div"), "field 'group': must be 'inv' or 'div'")
    return (tower, group, _flag(payload, "maximal_principal", None),
            _flag(payload, "maximal_branched", True))


def parse_prufer(payload: dict) -> tuple:
    _expect(isinstance(payload.get("root"), dict), "field 'root': missing tree root")
    locally_finite = _flag(payload, "locally_finite", True)
    tree = prufer.tree_from_payload(payload["root"])
    question = payload.get("question", "inv")
    _expect(question in ("inv", "div", "strongly_discrete"),
            "field 'question': must be 'inv', 'div' or 'strongly_discrete'")
    return (tree, question, locally_finite, _flag(payload, "codim_finite", False),
            _flag(payload, "t_finite_character", None))


def parse_krull(payload: dict) -> str:
    variant = payload.get("variant", "krull")
    _expect(variant in ("krull", "dedekind", "UFD"),
            "field 'variant': must be 'krull', 'dedekind' or 'UFD'")
    return variant


def parse_diagram(payload: dict) -> tuple:
    """``(check, *terms)``, each term built and checked in document order."""
    check = payload.get("check")
    _expect(isinstance(check, str) and check in abelian.DIAGRAM_CHECKS,
            "field 'check': must be 'group', 'ses', 'snake' or 'amalgam'")
    _known_keys(payload, _DIAGRAM_KEYS[check], None)
    if check == "group":
        return check, parse_group(payload.get("group"), "group")
    if check == "ses":
        return check, parse_ses(payload.get("ses"), "ses")
    if check == "snake":
        rec = payload.get("snake")
        _expect(isinstance(rec, dict), "field 'snake': must be an object")
        _known_keys(rec, _KEYS["snake"], "snake")
        top = parse_ses(rec.get("top"), "snake.top")
        bottom = parse_ses(rec.get("bottom"), "snake.bottom")
        return (check, top, bottom,
                _parse_hom(rec.get("f"), top.left, bottom.left, "snake.f"),
                _parse_hom(rec.get("g"), top.mid, bottom.mid, "snake.g"),
                _parse_hom(rec.get("h"), top.right, bottom.right, "snake.h"))
    # amalgam
    rec = payload.get("amalgam")
    _expect(isinstance(rec, dict), "field 'amalgam': must be an object")
    _known_keys(rec, _KEYS["amalgam"], "amalgam")
    g = parse_group(rec.get("g"), "amalgam.g")
    raw_parts = rec.get("parts")
    _expect(isinstance(raw_parts, list) and raw_parts, "amalgam.parts: must be a nonempty list")
    parts = []
    for i, p in enumerate(raw_parts):
        _expect(isinstance(p, dict), f"amalgam.parts[{i}]: must be an object")
        _known_keys(p, _KEYS["amalgam part"], f"amalgam.parts[{i}]")
        grp = parse_group(p.get("group"), f"amalgam.parts[{i}].group")
        comp = parse_group(p.get("complement"), f"amalgam.parts[{i}].complement")
        emb = _parse_hom(p.get("emb"), g, grp, f"amalgam.parts[{i}].emb")
        proj = _parse_hom(p.get("proj"), grp, comp, f"amalgam.parts[{i}].proj")
        retract = _parse_hom(p.get("retract"), grp, g, f"amalgam.parts[{i}].retract")
        parts.append(abelian.AmalgamPart(grp, emb, comp, proj, retract))
    return check, g, parts


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

# a file's keys by kind, and a group_diagram's by its check: it holds one term
_FILE_KEYS = {kind: _KEYS["envelope"] | _KEYS[kind] for kind in KINDS}
_DIAGRAM_KEYS = {check: _FILE_KEYS["group_diagram"] | {check}
                 for check in abelian.DIAGRAM_CHECKS}


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


def _instances(path_arg: str):
    """``(name, payload)`` of the instance file at the path, or of each
    ``.json`` file of a directory in name order, loaded one at a time."""
    path = Path(path_arg)
    try:
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    except OSError as exc:  # such as a name too long for the file system
        raise SchemaError(f"{path}: cannot read ({exc})") from exc
    if not files:
        raise SchemaError(f"{path}: directory contains no .json instances")
    for f in files:
        payload = load_payload(f)
        yield payload.get("name", f.stem), payload


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_decide(path: str, format: str, trace: str) -> int:
    """decide each instance: verdict, group and certificate"""
    reports = [decide_payload(payload, name) for name, payload in _instances(path)]
    trace_full = trace == "full"
    if format == "json":
        if len(reports) == 1:
            print(canonical_json(reports[0].to_dict(trace_full)))
        else:
            print(canonical_json([r.to_dict(trace_full) for r in reports]))
    else:
        print("\n\n".join(render_report_human(r, trace_full) for r in reports))
    return 0


def cmd_expr(path: str) -> int:
    """print the group expression of each instance"""
    for name, payload in _instances(path):
        report = decide_payload(payload, name)
        print(report.expr if report.expr is not None else "(none)")
    return 0


def cmd_verify(path: str, format: str) -> int:
    """replay the finitely generated sub-claims of each instance"""
    all_results = [(name, verify_payload(payload, name))
                   for name, payload in _instances(path)]
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
    return 0 if all(ok for _, cs in all_results for _, ok, _ in cs) else 1


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
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        # a fault in igl, not in the input: one line, never a traceback
        print(" ".join(f"internal error: {type(exc).__name__}: {exc}".split()),
              file=sys.stderr)
        return 4


def entrypoint() -> None:  # pragma: no cover - console script shim
    import signal
    # a reader that closes stdout ends igl as it ends any filter: by SIGPIPE
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
