import json
import os
import random
import signal
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from math import prod
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igl import abelian, cli, matrices, noeth, prufer, scattered, valgroup
from igl.abelian import FgGroup
from igl.cli import canonical_json, main
from igl.errors import DiagramError
from igl.matrices import IntMatrix
from oracles import (amalgam_payload, argv_grid, caterpillar_payload, dense_group_payload,
                     dense_ses_payload, diagonal, random_matrix, reference_parser, reference_snf,
                     tree_payload)

DVR = {"v": 1, "kind": "valuation", "tower": ["Z"], "name": "dvr"}
YTREE = {"v": 1, "kind": "prufer_tree",
         "root": {"id": "0", "children": [
             {"id": "P", "label": ["Z"], "children": [
                 {"id": "M1", "label": ["Z"]},
                 {"id": "M2", "label": ["Z"]}]}]}}
CURVE = {"v": 1, "kind": "noeth_local",
         "k": {"opaque": {"label": "K", "characteristic": 0}},
         "branches": [{"L": {"opaque": {"label": "K", "characteristic": 0}}, "e": 2}],
         "source": "cusp of a monomial curve"}
SES = {"v": 1, "kind": "group_diagram", "check": "ses",
       "ses": {"left": {"generators": 1, "relators": []},
               "mid": {"generators": 2, "relators": []},
               "right": {"generators": 1, "relators": []},
               "inj": [[1], [0]],
               "surj": [[0, 1]]}}


def write(tmp_path, payload, name="inst.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload), encoding="utf-8")
    return p


def test_decide_human(tmp_path, capsys):
    rc = main(["decide", str(write(tmp_path, DVR))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict:  Free" in out
    assert "group:    Z" in out
    assert "valuation-inv-iso" in out


def test_decide_json_roundtrip_byte_identical(tmp_path, capsys):
    rc = main(["decide", str(write(tmp_path, YTREE)), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    text = out.strip()
    parsed = json.loads(text)
    assert canonical_json(parsed) == text
    assert parsed["verdict"] == "Free"
    assert parsed["expr"] == "Z^3"


def test_decide_deterministic_modulo_timing(tmp_path, capsys):
    path = str(write(tmp_path, CURVE))
    main(["decide", path, "--format", "json"])
    one = json.loads(capsys.readouterr().out)
    main(["decide", path, "--format", "json"])
    two = json.loads(capsys.readouterr().out)
    one.pop("elapsed_ms"), two.pop("elapsed_ms")
    assert one == two
    assert one["verdict"] == "NotFree"
    assert one["metadata"]["source"] == "cusp of a monomial curve"


def test_trace_full_echoes_inputs(tmp_path, capsys):
    path = str(write(tmp_path, YTREE))
    main(["decide", path])
    brief = capsys.readouterr().out
    main(["decide", path, "--trace", "full"])
    full = capsys.readouterr().out
    assert len(full) > len(brief)
    assert "value_group" in full


def test_expr_command(tmp_path, capsys):
    rc = main(["expr", str(write(tmp_path, DVR))])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "Z"


def test_malformed_json_exits_2_with_line(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text('{"v": 1,\n  "kind": ???}', encoding="utf-8")
    rc = main(["decide", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err


def test_schema_error_exits_2(tmp_path, capsys):
    rc = main(["decide", str(write(tmp_path, {"v": 1, "kind": "nonsense"}))])
    err = capsys.readouterr().err
    assert rc == 2
    assert "kind" in err


def test_precondition_exits_3(tmp_path, capsys):
    """A zero conductor is refused under ``decide`` and ``verify`` alike:
    only a diagram's refusal is a failing check."""
    bad = dict(CURVE)
    bad["conductor_nonzero"] = False
    path = str(write(tmp_path, bad))
    rc = main(["decide", path])
    err = capsys.readouterr().err
    assert rc == 3
    assert "conductor" in err
    assert main(["verify", path]) == 3
    assert capsys.readouterr() == ("", err)
    assert err.startswith("precondition violated: zero conductor ")


def test_only_a_diagram_refusal_is_a_failing_check(tmp_path, capsys, monkeypatch):
    """A ``DiagramError`` from any other kind's check is a refused
    precondition under ``verify`` (exit 3), not a diagram's failing check."""
    def refuse(inst):
        raise DiagramError("map is not well defined")

    monkeypatch.setattr(noeth, "check_noeth", refuse)
    assert main(["verify", str(write(tmp_path, CURVE))]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "precondition violated: map is not well defined\n"


def test_internal_error_exits_4_without_traceback(tmp_path, capsys, monkeypatch):
    def boom(payload):
        raise RuntimeError("decider fault\nsecond line")

    path = str(write(tmp_path, DVR))
    monkeypatch.setitem(cli.KINDS, "valuation", (boom, cli.KINDS["valuation"][1]))
    rc = main(["decide", path])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.err == "internal error: RuntimeError: decider fault second line\n"
    assert "Traceback" not in captured.out + captured.err

    def interrupted(payload):
        raise KeyboardInterrupt

    monkeypatch.setitem(cli.KINDS, "valuation", (interrupted, cli.KINDS["valuation"][1]))
    with pytest.raises(KeyboardInterrupt):
        main(["decide", path])


def test_unknown_verdict_still_exit_0(tmp_path, capsys):
    unknown = {"v": 1, "kind": "prufer_tree",
               "root": {"id": "0", "children": [
                   {"id": "P", "label": ["Q"], "children": [
                       {"id": "M1", "label": ["Z"]},
                       {"id": "M2", "label": ["Z"]}]}]}}
    rc = main(["decide", str(write(tmp_path, unknown))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Unknown" in out


def test_directory_batch(tmp_path, capsys):
    write(tmp_path, DVR, "a.json")
    write(tmp_path, YTREE, "b.json")
    rc = main(["decide", str(tmp_path), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert isinstance(out, list) and len(out) == 2
    assert {r["kind"] for r in out} == {"valuation", "prufer_tree"}


def test_verify_prufer(tmp_path, capsys):
    rc = main(["verify", str(write(tmp_path, YTREE))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "cut-at-P" in out
    assert "rank-matches-slots" in out


def test_verify_group_diagram(tmp_path, capsys):
    rc = main(["verify", str(write(tmp_path, SES))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "splits=True" in out


def test_verify_noeth_crosscheck(tmp_path, capsys):
    payload = {"v": 1, "kind": "noeth_local",
               "k": {"finite": {"p": 2, "r": 1}},
               "branches": [{"L": {"finite": {"p": 2, "r": 2}}, "e": 1},
                            {"L": {"finite": {"p": 2, "r": 2}}, "e": 1}]}
    rc = main(["verify", str(write(tmp_path, payload))])
    out = capsys.readouterr().out
    assert rc == 0
    assert "amalgam-crosscheck" in out and "FAIL" not in out


def test_unit_crosscheck_skip_names_its_reason(tmp_path, capsys):
    """Only an opaque field makes the skip about trusted declarations; an
    all-finite instance of case a or an integrally closed one has no
    finite unit quotient to check, and the skip names the case."""
    def finite(p, r=1):
        return {"finite": {"p": p, "r": r}}

    case_a = {"v": 1, "kind": "noeth_local", "k": finite(3, 2),
              "branches": [{"L": finite(3, 2), "e": 2}, {"L": finite(3, 2), "e": 1}]}
    closed = {"v": 1, "kind": "noeth_local", "k": finite(2), "integrally_closed": True,
              "branches": [{"L": finite(2), "e": 1}]}
    for payload, detail in ((case_a, "skipped: no finite unit quotient in case a"),
                            (closed, "skipped: no finite unit quotient in case "
                                     "integrally-closed"),
                            (CURVE, "skipped: opaque declarations are trusted inputs")):
        assert main(["verify", str(write(tmp_path, payload)), "--format", "json"]) == 0
        checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["unit-crosscheck"] == {"check": "unit-crosscheck", "detail": detail,
                                             "ok": True}


def test_tower_crosscheck_fails_a_wrong_value_group(capsys, monkeypatch):
    """An invertible group one ``Z`` too large fails ``tower-crosscheck``,
    and ``verify`` exits 1."""
    inv = valgroup.inv_of_valuation

    def wrong(t):
        return valgroup.normalize(valgroup.direct_sum(inv(t), valgroup.Z))

    for module in (valgroup, abelian):
        monkeypatch.setattr(module, "inv_of_valuation", wrong)
    instances = Path(__file__).resolve().parent.parent / "instances"
    for name, n in (("dvr.json", 1), ("rank_two_valuation.json", 2)):
        assert main(["verify", str(instances / name), "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["ok"]) for c in checks] == [("tower-crosscheck", False)]
        assert checks[0]["detail"] == f"assertion failed: {(0,) * (n + 1)} != {(0,) * n}"


def test_verify_failing_check_exits_1(tmp_path, capsys):
    # well-formed but not exact: the image 2Z of the inclusion is not the
    # kernel 0 of the projection
    z = {"generators": 1, "relators": []}
    payload = {"v": 1, "kind": "group_diagram", "check": "ses",
               "ses": {"left": z, "mid": z, "right": z, "inj": [[2]], "surj": [[1]]}}
    rc = main(["verify", str(write(tmp_path, payload)), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert [(c["check"], c["ok"]) for c in out["checks"]] == \
        [("sequence-exact-and-split-tested", False)]
    assert "not exact" in out["checks"][0]["detail"]


@pytest.mark.parametrize("name,field,value,label,detail", [
    ("snake_ladder.json", "f", [[3]], "ladder-and-six-term", "left square does not commute"),
    ("snake_ladder.json", "h", [[3]], "ladder-and-six-term", "right square does not commute"),
    ("amalgam_two_planes.json", "retract", [[2, 0]], "amalgam-isomorphism",
     "part 0: retraction is not a left inverse of the embedding"),
    ("amalgam_two_planes.json", "proj", [[1, 1]], "amalgam-isomorphism",
     "part 0: projection does not kill the embedded copy"),
], ids=["left-square", "right-square", "retraction", "projection"])
def test_rejected_diagram_exits_3_and_fails_its_check(tmp_path, capsys, name, field, value,
                                                      label, detail):
    """A well-formed diagram that fails one map identity: ``decide`` exits
    3 naming it, and ``verify`` fails the diagram's check with the same
    detail."""
    instances = Path(__file__).resolve().parent.parent / "instances"
    payload = json.loads((instances / name).read_text(encoding="utf-8"))
    target = payload["snake"] if "snake" in payload else payload["amalgam"]["parts"][0]
    target[field] = value
    path = str(write(tmp_path, payload))
    assert main(["decide", path]) == 3
    assert capsys.readouterr() == ("", f"precondition violated: {detail}\n")
    assert main(["verify", path, "--format", "json"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [{"check": label, "detail": detail, "ok": False}]


def _corrupted_snake(monkeypatch):
    """Make ``abelian.snake`` return a connecting map into its target
    presented without relations, a map that no exact sequence has."""
    snake = abelian.snake

    def corrupted(*ladder):
        res = snake(*ladder)
        return res._replace(connecting=res.connecting._replace(
            target=FgGroup.free(res.coker_f.generators)))

    monkeypatch.setattr(abelian, "snake", corrupted)


@pytest.mark.parametrize("name", ["snake_ladder.json", "snake_ladder_kernel.json"])
def test_verify_fails_a_corrupted_connecting_map(capsys, monkeypatch, name):
    """``decide`` takes the snake lemma on trust and builds no map, and
    ``verify`` checks the six-term sequence that ``snake`` built: a
    corrupted connecting map fails ``ladder-and-six-term``, and ``verify``
    exits 1."""
    _corrupted_snake(monkeypatch)
    path = str(Path(__file__).resolve().parent.parent / "instances" / name)
    assert main(["decide", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"check": "ladder-and-six-term",
         "detail": "assertion failed: six-term sequence not exact at coker f", "ok": False}]


def _corrupted_amalgam_map(monkeypatch, k):
    """Make ``abelian.amalgam_map`` scale the block of its first part's
    projection by ``k``."""
    amalgam_map = abelian.amalgam_map

    def corrupted(g, parts):
        psi = amalgam_map(g, parts)
        block = parts[0].proj.matrix
        entries = tuple(tuple(k * x if i < block.rows and j < block.cols else x
                              for j, x in enumerate(row))
                        for i, row in enumerate(psi.matrix.entries))
        return psi._replace(matrix=IntMatrix(psi.matrix.rows, psi.matrix.cols, entries))

    monkeypatch.setattr(abelian, "amalgam_map", corrupted)


@pytest.mark.parametrize("k,detail", [(0, "amalgam map has the wrong kernel"),
                                      (2, "amalgam map is not surjective")],
                         ids=["block-zero", "block-doubled"])
def test_verify_fails_a_corrupted_amalgam_map(capsys, monkeypatch, k, detail):
    """``decide`` reads an amalgam off its checked parts, and ``verify``
    builds the isomorphism onto the standard form and tests it: a
    corrupted block fails ``amalgam-isomorphism``, and ``verify`` exits 1."""
    _corrupted_amalgam_map(monkeypatch, k)
    path = str(Path(__file__).resolve().parent.parent / "instances" / "amalgam_two_planes.json")
    assert main(["decide", path]) == 0
    capsys.readouterr()
    assert main(["verify", path, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"check": "amalgam-isomorphism", "detail": detail, "ok": False}]


def test_decide_builds_no_map_of_a_diagram(capsys, monkeypatch):
    """``decide`` describes a ladder's six terms and reads an amalgam off
    its parts: neither the snake's maps nor the amalgam map is built."""
    calls = []
    for name in ("snake", "amalgam_map", "_lift_through", "factor_through"):
        monkeypatch.setattr(abelian, name, _counting(calls, getattr(abelian, name)))
    instances = Path(__file__).resolve().parent.parent / "instances"
    for name in ("snake_ladder.json", "snake_ladder_kernel.json", "amalgam_two_planes.json"):
        assert main(["decide", str(instances / name)]) == 0
    assert calls == []
    capsys.readouterr()


def test_verify_fails_a_section_that_does_not_split(capsys, monkeypatch):
    """``decide`` takes ``split_test``'s section on trust, and ``verify``
    tests it against the identity: a zero section of a split sequence
    fails ``sequence-exact-and-split-tested``."""
    split_test = abelian.split_test

    def zero_section(s):
        res = split_test(s)
        m = res.section.matrix
        return res._replace(section=res.section._replace(matrix=IntMatrix.zeros(m.rows, m.cols)))

    monkeypatch.setattr(abelian, "split_test", zero_section)
    path = str(Path(__file__).resolve().parent.parent / "instances" / "ses_split.json")
    assert main(["verify", path, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"check": "sequence-exact-and-split-tested",
         "detail": "assertion failed: the section found does not split the projection",
         "ok": False}]


MAP_KEYS = {"inj", "surj", "f", "g", "h", "emb", "proj", "retract"}


def _maps_and_sequences(payload) -> tuple[int, int]:
    """How many map matrices and sequences a diagram's file states."""
    maps = sequences = 0
    todo = [payload]
    while todo:
        rec = todo.pop()
        if isinstance(rec, list):
            todo.extend(rec)
        elif isinstance(rec, dict):
            sequences += "surj" in rec
            for key, value in rec.items():
                # a map is a matrix; the group of an amalgam is named "g" too
                if key in MAP_KEYS and isinstance(value, list):
                    maps += 1
                else:
                    todo.append(value)
    return maps, sequences


def _counting(calls: list, fn):
    """``fn``, appending ``fn`` to ``calls`` on each call."""
    def counted(*args):
        calls.append(fn)
        return fn(*args)
    return counted


def test_decide_checks_each_map_and_sequence_of_the_file_once(capsys, monkeypatch):
    """Deciding a diagram checks what the file states, once each: every map
    matrix is checked well defined and every sequence exact, by the parse.
    The maps that the engine builds are not re-checked."""
    calls = []
    checks = abelian.FgHom.__post_init__, abelian.ShortExactSeq.__post_init__
    monkeypatch.setattr(abelian.FgHom, "__post_init__", _counting(calls, checks[0]))
    monkeypatch.setattr(abelian.ShortExactSeq, "__post_init__", _counting(calls, checks[1]))
    files = [f for f in sorted((Path(__file__).resolve().parent.parent / "instances").iterdir())
             if json.loads(f.read_text(encoding="utf-8"))["kind"] == "group_diagram"]
    # every check that a diagram states has a file, however many each has
    assert {json.loads(f.read_text(encoding="utf-8"))["check"] for f in files} \
        == set(abelian.DIAGRAM_CHECKS)
    for f in files:
        calls.clear()
        assert main(["decide", str(f)]) == 0
        counts = tuple(map(calls.count, checks))
        assert counts == _maps_and_sequences(json.loads(f.read_text(encoding="utf-8"))), f.name
    capsys.readouterr()


def test_verify_builds_the_six_term_sequence_once(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(abelian, "snake", _counting(calls, abelian.snake))
    for name in ("snake_ladder.json", "snake_ladder_kernel.json"):
        calls.clear()
        path = Path(__file__).resolve().parent.parent / "instances" / name
        assert main(["verify", str(path)]) == 0
        assert len(calls) == 1
    capsys.readouterr()


def test_unknown_krull_variant_is_a_field_error(tmp_path, capsys):
    path = str(write(tmp_path, {"v": 1, "kind": "krull", "variant": ["x"]}))
    for cmd in ("decide", "verify"):
        assert main([cmd, path]) == 2
        assert capsys.readouterr() == (
            "", f"error: {path}: variant: must be 'krull', 'dedekind' or 'UFD'\n")


def test_verify_fails_a_corrupted_cut(tmp_path, capsys, monkeypatch):
    decide = prufer.decide_inv_free

    def corrupted(tree):
        d = decide(tree)
        cut = d.cuts[0]
        bad = cut._replace(quotient_rank=cut.quotient_rank + 1)
        return d._replace(cuts=(bad,) + d.cuts[1:])

    monkeypatch.setattr(prufer, "decide_inv_free", corrupted)
    rc = main(["verify", str(write(tmp_path, YTREE)), "--format", "json"])
    checks = {c["check"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    assert rc == 1
    assert checks["cut-at-P"] == {"check": "cut-at-P", "ok": False,
                                  "detail": "assertion failed: middle term mismatch"}
    assert all(c["ok"] for label, c in checks.items() if label != "cut-at-P")


def test_verify_fails_a_wrong_cantor_bendixson_rank(capsys, monkeypatch):
    """A Cantor-Bendixson rank one too high fails both checks of a
    scattered space, and ``verify`` exits 1."""
    rank = scattered.cb_rank
    monkeypatch.setattr(scattered, "cb_rank",
                        lambda s: scattered.Ordinal.from_int(rank(s).as_int() + 1))
    instances = Path(__file__).resolve().parent.parent / "instances"
    # instance -> (the rank reported, the leading exponent of the bound + 1)
    for name, (got, want) in {"scattered_obstruction.json": (3, 2),
                              "scattered_omega.json": (3, 2),
                              "scattered_omega_squared.json": (4, 3)}.items():
        assert main(["verify", str(instances / name), "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["ok"]) for c in checks] == \
            [("rank-consistent", False), ("derived-sequence-monotone", False)]
        assert checks[0]["detail"] == \
            f"assertion failed: rank {got} != leading exponent + 1 = {want}"
        assert checks[1]["detail"] == \
            "assertion failed: derived sequence length differs from the rank"


def _shift_top_size(monkeypatch):
    # the closed form of stratum 2 counts one point more; the derivatives'
    # own stratum 0 is asked for at k = 0 and stays right
    size = scattered.stratum_size
    monkeypatch.setattr(scattered, "stratum_size",
                        lambda s, k: size(s, k) + 1 if k == 2 else size(s, k))


def _stall_derivative(monkeypatch):
    # the derivative removes nothing
    monkeypatch.setattr(scattered, "cb_derivative", lambda s: s)


@pytest.mark.parametrize("mutate,detail", [
    (_shift_top_size, "stratum 2 size differs from its closed form"),
    (_stall_derivative, "strata grew under the derivative"),
], ids=["closed-form-size", "derivative-stalls"])
def test_verify_fails_a_broken_derived_walk(tmp_path, capsys, monkeypatch, mutate, detail):
    """Each fault of the derived walk fails ``derived-sequence-monotone``
    with its own detail, and ``verify`` exits 1."""
    payload = {"v": 1, "kind": "scattered_space", "bound": "w^2*3+w+2",
               "labels": {"0": ["Z"], "1": ["Z"], "2": ["Q"]}}
    path = str(write(tmp_path, payload))
    mutate(monkeypatch)
    assert main(["verify", path, "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"check": "rank-consistent", "detail": "rank 3 = leading exponent + 1", "ok": True},
        {"check": "derived-sequence-monotone", "detail": "assertion failed: " + detail,
         "ok": False}]


def test_tree_verify_needs_no_integer_engine(monkeypatch):
    def refuse(*args):
        raise RuntimeError("tree verify called the integer engine")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "igl":
            for engine in ("snf", "unit_core"):
                if getattr(module, engine, None) is getattr(matrices, engine):
                    monkeypatch.setattr(module, engine, refuse)
    # a broom: a handle of 40 primes, then 20 bristles
    broom = list(range(40)) + [40] * 20
    # a caterpillar: a spine of 150 primes, one leaf on each, two on the last
    caterpillar, prev = [], 0
    for _ in range(150):
        caterpillar += [prev, len(caterpillar) + 1]
        prev = len(caterpillar) - 1
    caterpillar.append(prev)
    for parents in (broom, caterpillar):
        kids = [0] * (len(parents) + 1)
        for p in parents:
            kids[p] += 1
        branching = sum(1 for n in kids[1:] if n >= 2)
        checks = cli.verify_payload(tree_payload(parents), "tree")
        assert [c for c in checks if not c[1]] == []
        cuts = [d for label, _, d in checks if label.startswith("cut-at-")]
        assert cuts == ["exact and split on finitely generated stand-ins"] * branching


def test_tree_decide_and_verify_work_grows_linearly(monkeypatch):
    """Going from spine 100 to spine 400, the summands that ``normal_sum``
    receives in ``decide_inv_free`` and the atoms that ``verify`` walks
    each grow at most 4.5 times."""
    work = {"summands": 0, "atoms": 0}
    normal_sum, atoms = prufer.normal_sum, valgroup._atoms

    def counted_sum(parts):
        parts = list(parts)
        work["summands"] += sum(len(p.parts) if isinstance(p, valgroup.DirectSum) else 1
                                for p in parts)
        return normal_sum(parts)

    def counted_atoms(e):
        for atom in atoms(e):
            work["atoms"] += 1
            yield atom

    monkeypatch.setattr(prufer, "normal_sum", counted_sum)
    monkeypatch.setattr(valgroup, "_atoms", counted_atoms)
    seen = {}
    for spine in (100, 400):
        payload = caterpillar_payload(spine)
        work["summands"] = work["atoms"] = 0
        prufer.decide_inv_free(cli.parse_prufer(payload)[0])
        summands = work["summands"]
        work["atoms"] = 0
        checks = cli.verify_payload(payload, "caterpillar")
        assert all(ok for _, ok, _ in checks)
        seen[spine] = summands, work["atoms"]
    (s100, a100), (s400, a400) = seen[100], seen[400]
    assert s400 <= 4.5 * s100, seen
    assert a400 <= 4.5 * a100, seen


def test_cut_replay_builds_no_normal_form(monkeypatch):
    calls = []
    inside = []
    replay = prufer._check_cut

    def watched(*args):
        inside.append(True)
        try:
            return replay(*args)
        finally:
            inside.pop()

    def recorded(name, inner):
        def wrapper(*args):
            if inside:
                calls.append(name)
            return inner(*args)
        return wrapper

    monkeypatch.setattr(prufer, "_check_cut", watched)
    for name in ("normalize", "expr_invariant_factors"):
        inner = getattr(valgroup, name)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.split(".")[0] == "igl" and getattr(module, name, None) is inner:
                monkeypatch.setattr(module, name, recorded(name, inner))
    for heavy in (("Z", "Z"), ("Q",)):
        checks = cli.verify_payload(caterpillar_payload(40, heavy), "caterpillar")
        details = {d for label, ok, d in checks if label.startswith("cut-at-") and ok}
        assert len([c for c in checks if c[0].startswith("cut-at-")]) == 40
        # every class holds the leaf of the fortieth spine prime, labelled Q
        assert details == ({"exact and split on finitely generated stand-ins"}
                           if heavy == ("Z", "Z") else {"skipped: not finitely generated"})
    assert calls == []


def test_tree_verify_normalizes_nothing(monkeypatch):
    """Every ``Decision.expr`` is a normal form, so verifying an all-``Z``
    tree, rank check included, never normalizes."""
    calls = []
    inner = valgroup.normalize

    def counted(e):
        calls.append(e)
        return inner(e)

    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "igl" and getattr(module, "normalize", None) is inner:
            monkeypatch.setattr(module, "normalize", counted)
    checks = cli.verify_payload(caterpillar_payload(40), "caterpillar")
    assert all(ok for _, ok, _ in checks)
    assert ("rank-matches-slots", True, "rank 91 matches the slot count") in checks
    assert calls == []


def test_non_ascii_digit_label_key_exits_2(tmp_path, capsys):
    path = str(write(tmp_path, {"v": 1, "kind": "scattered_space", "bound": "3",
                                "labels": {"²": ["Z"]}}))
    for cmd in ("decide", "verify"):
        assert main([cmd, path]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: labels: key '²' is not a decimal stratum index\n"


@pytest.mark.parametrize("keys", [("0", "1", "01"), ("0", "01", "1")])
def test_label_keys_naming_one_stratum_twice_exit_2(tmp_path, capsys, keys):
    """``"1"`` and ``"01"`` name one stratum: in either order the later
    key is refused, not read over the earlier one."""
    slots = {"0": ["Z"], "1": ["Z"], "01": ["Q"]}
    path = str(write(tmp_path, {"v": 1, "kind": "scattered_space", "bound": "w",
                                "labels": {key: slots[key] for key in keys}}))
    for cmd in ("decide", "verify"):
        assert main([cmd, path]) == 2
        assert capsys.readouterr().err == \
            f"error: {path}: labels: key {keys[2]!r} names stratum 1, already labelled\n"


def test_decide_snake_diagram(tmp_path, capsys):
    payload = {"v": 1, "kind": "group_diagram", "check": "snake",
               "snake": {
                   "top": SES["ses"], "bottom": SES["ses"],
                   "f": [[2]], "g": [[2, 0], [0, 2]], "h": [[2]]}}
    rc = main(["decide", str(write(tmp_path, payload)), "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["metadata"]["six_terms"] == ["0", "0", "0", "Z/2", "(Z/2)^2", "Z/2"]


def test_noncommuting_snake_exits_3(tmp_path, capsys):
    payload = {"v": 1, "kind": "group_diagram", "check": "snake",
               "snake": {
                   "top": SES["ses"], "bottom": SES["ses"],
                   "f": [[2]], "g": [[3, 0], [0, 3]], "h": [[2]]}}
    rc = main(["decide", str(write(tmp_path, payload))])
    assert rc == 3
    assert "square" in capsys.readouterr().err


def test_definite_verdicts_carry_certificates(capsys):
    # every Free/NotFree report names at least one rule
    from igl.cli import decide_payload
    from igl.corpus import CASES
    for case in CASES:
        if case.payload is None:
            continue
        report = decide_payload(case.payload, case.name)
        if report.verdict in ("Free", "NotFree", "DirectSumFree", "Obstructed"):
            assert len(report.certificate) >= 1
            assert all(step.rule for step in report.certificate)


def test_selftest_green(capsys):
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    assert "corpus cases green" in out


def test_selftest_json(capsys):
    rc = main(["selftest", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["green"] is True


# ---------------------------------------------------------------------------
# canonical JSON: the standard library's bytes from one direct emitter
# ---------------------------------------------------------------------------

SCALARS = (st.none() | st.booleans()
           | st.integers() | st.integers(min_value=-2 ** 200, max_value=2 ** 200)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f\n\t", "é ÿ", "😀𝔸", "\u2028"]))
JSON_VALUES = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=40)


@st.composite
def shared_values(draw):
    """A value that holds one dict or list object several times, at one
    depth and at several: its text is copied, and at another depth it is
    written at that depth's indent."""
    shared = draw(st.dictionaries(st.text(), JSON_VALUES, min_size=1, max_size=3)
                  | st.lists(JSON_VALUES, min_size=1, max_size=3))
    return draw(st.recursive(
        st.just(shared) | SCALARS,
        lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(), inner, max_size=5),
        max_leaves=20))


_D = {"rule": "r", "statement": [1, {"s": None}]}
_L = [_D, "x"]


@settings(max_examples=400, deadline=None)
@given(JSON_VALUES | shared_values())
@example({"a": [(), {}, [], -0.0, 1e-7, 1e22, 2 ** 64 + 1, -(2 ** 70)], "": None,
          "b\"\\\x01é😀": (True, False, "q\"\\\x1f𝔸")})
@example([_D, _D, [_D, _D], {"a": [_D, _D, _L]}])
@example([_L, _L, [_L, [_L, _L]], (_L, _L)])
def test_canonical_json_matches_the_stdlib_encoder(x):
    assert canonical_json(x) == json.dumps(x, sort_keys=True, indent=2, ensure_ascii=False)


def test_equal_certificate_steps_are_written_once(tmp_path, capsys, monkeypatch):
    """A caterpillar of spine 40 has 122 certificate steps and 4 distinct
    ones: its report encodes the strings of each distinct step once, and
    its bytes stay those of ``json.dumps``, under ``--trace full`` too."""
    encoded = []

    def encode(s, plain=cli.encode_basestring):
        encoded.append(s)
        return plain(s)

    monkeypatch.setattr(cli, "encode_basestring", encode)
    monkeypatch.setitem(cli._SCALARS, str, encode)
    payload = caterpillar_payload(40)
    report = cli.decide_payload(payload, "caterpillar")
    distinct = {step[:2] for step in report.certificate}
    assert (len(report.certificate), len(distinct)) == (122, 4)
    data = report.to_dict(False)
    canonical_json(dict(data, certificate=[]))
    outside = len(encoded)
    encoded.clear()
    text = canonical_json(data)
    # two keys and two values per distinct step
    assert len(encoded) == outside + 4 * len(distinct)
    assert text == json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False)
    tree = str(write(tmp_path, payload))
    for trace in ("rules", "full"):
        assert main(["decide", tree, "--format", "json", "--trace", trace]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2,
                                 ensure_ascii=False) + "\n"


def test_json_constants_need_no_encoder(monkeypatch):
    """``true``, ``false``, ``null`` and a finite float are written without
    the standard library's encoder; NaN and the infinities still go
    through it, as it owns their spellings."""
    def refuse(*args, **kwargs):
        raise AssertionError("the JSON encoder ran")

    monkeypatch.setattr(json.JSONEncoder, "encode", refuse)
    assert canonical_json({"ok": [True, False], "expr": None, "ms": 1.5}) == \
        '{\n  "expr": null,\n  "ms": 1.5,\n  "ok": [\n    true,\n    false\n  ]\n}'
    for x in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(AssertionError):
            canonical_json(x)


@pytest.mark.parametrize("x", [0.0, -0.0, 0.1, 1.5, 1e16, 1e-7, 5e-324, 1.7976931348623157e308,
                               float("nan"), float("inf"), -float("inf")])
def test_a_float_is_written_as_json_dumps_writes_it(x):
    assert canonical_json([x]) == json.dumps([x], indent=2)


@pytest.mark.parametrize("bad", [{1: "x"}, {"a": 1, 2: "b"}, {"a": {1.5}}, [b"x"], (object(),)])
def test_canonical_json_refuses_what_no_report_holds(bad):
    with pytest.raises(TypeError):
        canonical_json(bad)


def test_reports_never_enter_the_pure_python_encoder(tmp_path, capsys, monkeypatch):
    """The standard library encodes with ``indent`` only through its
    pure-Python ``_make_iterencode``; with that refused, every JSON
    command still exits 0, so ``canonical_json`` writes every report."""
    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    tree = str(write(tmp_path, caterpillar_payload(40, heavy=("Z",))))
    instances = str(Path(__file__).resolve().parent.parent / "instances")
    for argv in (["decide", tree, "--format", "json", "--trace", "full"],
                 ["verify", tree, "--format", "json"],
                 ["selftest", "--format", "json"],
                 ["decide", instances, "--format", "json"]):
        assert main(argv) == 0, argv
        capsys.readouterr()


# ---------------------------------------------------------------------------
# bounded input handling: every input ends in a report or exit 2
# ---------------------------------------------------------------------------

def assert_schema_exit(tmp_path, capsys, payload_or_text, needle):
    p = tmp_path / "inst.json"
    text = payload_or_text if isinstance(payload_or_text, str) else json.dumps(payload_or_text)
    p.write_text(text, encoding="utf-8")
    for cmd in ("decide", "verify"):
        assert main([cmd, str(p)]) == 2
        assert needle in capsys.readouterr().err


def test_tree_refusals_at_parse_exit_2(tmp_path, capsys):
    root = YTREE["root"]
    labelled = dict(YTREE, root=dict(root, label=["Q"]))
    assert_schema_exit(tmp_path, capsys, labelled,
                       ": root.label: the root (zero ideal) carries no edge label\n")
    # the second "M1" comes before the malformed record after it
    p = root["children"][0]
    dup = dict(YTREE, root=dict(root, children=[dict(p, children=p["children"] + [
        {"id": "M1", "label": ["Z"]}, {"id": "M3", "label": []}])]))
    assert_schema_exit(tmp_path, capsys, dup,
                       ": root.children[0].children[2].id: duplicate node id 'M1'\n")


def test_deeply_nested_tree_exits_2(tmp_path, capsys):
    # a caterpillar whose nested "children" lists are far deeper than any
    # JSON decoder recursion allows
    spine = 50_000
    head = '{"v": 1, "kind": "prufer_tree", "root": {"id": "0", "children": ['
    levels = "".join('{"id": "s%d", "label": ["Z"], "children": [{"id": "l%d", "label": ["Z"]}, '
                     % (i, i) for i in range(spine))
    text = head + levels + '{"id": "end", "label": ["Z"]}' + "]}" * spine + "]}}"
    assert_schema_exit(tmp_path, capsys, text, "nested too deeply")


def test_oversized_integers_exit_2(tmp_path, capsys):
    digits = "1" * 5000
    scattered = {"v": 1, "kind": "scattered_space", "labels": {"0": ["Z"]}}
    assert_schema_exit(tmp_path, capsys, dict(scattered, bound=f"w^{digits}"),
                       "more than 1000 digits")
    assert_schema_exit(tmp_path, capsys, dict(scattered, bound="3", labels={digits: ["Z"]}),
                       "more than 1000 digits")
    # a coefficient and a plain integer one digit past the cap, with the
    # term's first 20 characters in the message
    for bound, term in ((f"w*{digits[:1001]}", "w*" + "1" * 18), (digits[:1001], "1" * 20)):
        assert_schema_exit(tmp_path, capsys, dict(scattered, bound=bound),
                           f": bound: ordinal term {term!r}: more than 1000 digits\n")
    # a JSON number past the interpreter's int-from-str limit
    assert_schema_exit(tmp_path, capsys,
                       '{"v": 1, "kind": "krull", "n": %s}' % digits, "digits")


GENERATORS_CAP = cli.FIELDS["group"]["generators"].bound[1]


@pytest.mark.parametrize("n", [GENERATORS_CAP + 1, 10 ** 12])
def test_generators_above_the_cap_exit_2(tmp_path, capsys, n):
    # with no relators the group is Z^n, so the count alone sets the work;
    # it is refused before anything of that size is built
    payload = {"v": 1, "kind": "group_diagram", "check": "group", "group": {"generators": n}}
    assert_schema_exit(tmp_path, capsys, payload,
                       f"group.generators: must be an integer from 0 to {GENERATORS_CAP}")


def test_non_integer_extension_degree_exits_2(tmp_path, capsys):
    payload = {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": 2, "r": "x"}},
               "branches": [{"L": {"finite": {"p": 2}}}]}
    assert_schema_exit(tmp_path, capsys, payload, "finite.r")


@pytest.mark.parametrize("where", ["k", "branches[0].L"])
def test_a_field_both_finite_and_opaque_exits_2(tmp_path, capsys, where):
    """A field description is one or the other: one that holds both is
    refused by name, not read as its finite field."""
    payload = json.loads((INSTANCES / "f2_f4_one_branch.json").read_text(encoding="utf-8"))
    field = payload["k"] if where == "k" else payload["branches"][0]["L"]
    field["opaque"] = {"label": "K", "characteristic": 3}
    p = write(tmp_path, payload)
    for cmd in ("decide", "verify"):
        assert main([cmd, str(p)]) == 2
        assert capsys.readouterr().err == \
            f"error: {p}: {where}: must hold 'finite' or 'opaque', not both\n"


def test_boolean_is_not_an_integer(tmp_path, capsys):
    payload = {"v": 1, "kind": "group_diagram", "check": "group",
               "group": {"generators": True, "relators": []}}
    rc = main(["decide", str(write(tmp_path, payload))])
    assert rc == 2
    assert "generators" in capsys.readouterr().err
    for bad in ({"v": True, "kind": "krull"},
                {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": 2}},
                 "branches": [{"L": {"finite": {"p": 2}}, "e": True}]}):
        assert main(["decide", str(write(tmp_path, bad))]) == 2
        capsys.readouterr()


def test_malformed_amalgam_part_exits_2(tmp_path, capsys):
    payload = {"v": 1, "kind": "group_diagram", "check": "amalgam",
               "amalgam": {"g": {"generators": 1, "relators": []}, "parts": [5]}}
    assert_schema_exit(tmp_path, capsys, payload, "amalgam.parts[0]")


def test_malformed_group_diagram_exits_2(tmp_path, capsys):
    # verify reports a malformed diagram as a schema error, as decide does,
    # not as a failing check
    group = {"v": 1, "kind": "group_diagram", "check": "group",
             "group": {"generators": "x"}}
    assert_schema_exit(tmp_path, capsys, group, "group.generators")
    ses = dict(SES, ses=dict(SES["ses"], inj=[[1]]))
    assert_schema_exit(tmp_path, capsys, ses, "ses.inj")
    snake = {"v": 1, "kind": "group_diagram", "check": "snake", "snake": 5}
    assert_schema_exit(tmp_path, capsys, snake, ": snake: must be an object\n")


def test_unhashable_values_exit_2(tmp_path, capsys):
    for bad in ([], {}):
        assert_schema_exit(tmp_path, capsys, {"v": 1, "kind": bad}, ": kind: must be ")
        assert_schema_exit(tmp_path, capsys, dict(SES, check=bad), ": check: must be ")
        assert_schema_exit(tmp_path, capsys, dict(DVR, tower=["Z", bad]),
                           ": tower[1]: unknown tower slot")
        label = {"v": 1, "kind": "prufer_tree", "root": {"id": "0", "children": [
            {"id": "M", "label": [bad]}]}}
        assert_schema_exit(tmp_path, capsys, label, ": root.children[0].label[0]: unknown tower slot")


# one instance per family of boolean fields, with the key path of each field
BOOL_FIELDS = [
    (CURVE, [("integrally_closed",), ("conductor_nonzero",), ("local",)]),
    (dict(YTREE, question="div"), [("locally_finite",), ("codim_finite",),
                                   ("t_finite_character",),
                                   ("root", "children", 0, "branched")]),
    (DVR, [("maximal_principal",), ("maximal_branched",)]),
    (CURVE, [("k", "opaque", "unit_free"), ("branches", 0, "L", "opaque", "quotient_free"),
             ("branches", 0, "L", "opaque", "summand")]),
]


def mutated(payload, path, value):
    out = json.loads(json.dumps(payload))
    rec = out
    for key in path[:-1]:
        rec = rec[key]
    rec[path[-1]] = value
    return out


def test_boolean_fields_accept_only_true_and_false(tmp_path, capsys):
    for payload, paths in BOOL_FIELDS:
        for path in paths:
            for value in (True, False):
                target = write(tmp_path, mutated(payload, path, value))
                assert main(["decide", str(target)]) in (0, 3)
                capsys.readouterr()
            for bad in ("false", "yes", 0, 1, []):
                assert_schema_exit(tmp_path, capsys, mutated(payload, path, bad), path[-1])
    # "false" used to be read as true: a nonzero conductor, exit 0
    assert_schema_exit(tmp_path, capsys, dict(CURVE, conductor_nonzero="false"),
                       ": conductor_nonzero: must be true or false\n")


def test_null_keeps_the_default_only_where_undeclared_is_allowed(tmp_path, capsys):
    def decide_json(payload):
        assert main(["decide", str(write(tmp_path, payload)), "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        out.pop("elapsed_ms")
        return out
    opaque = ("branches", 0, "L", "opaque", "quotient_free")
    assert decide_json(mutated(CURVE, opaque, None)) == decide_json(CURVE)
    assert decide_json(dict(DVR, maximal_principal=None)) == decide_json(DVR)
    assert decide_json(dict(YTREE, t_finite_character=None)) == decide_json(YTREE)
    assert_schema_exit(tmp_path, capsys, dict(CURVE, conductor_nonzero=None),
                       "must be true or false")


@pytest.mark.parametrize("question", ["inv", "div", "strongly_discrete"])
def test_t_finite_character_extends_only_the_inv_certificate(tmp_path, capsys, question):
    """``t_finite_character: true`` appends one ``t-coincides-with-d`` step
    to the ``inv`` certificate, and to no other, and names itself in the
    metadata of all three questions; ``false``, ``null`` and an absent
    field add neither.  The reports are compared as the bytes ``decide``
    prints, timing masked."""
    def decide_text(payload):
        path = str(write(tmp_path, payload))
        assert main(["decide", path, "--format", "json", "--trace", "full"]) == 0
        report = json.loads(capsys.readouterr().out)
        report["elapsed_ms"] = 0
        return canonical_json(report)

    payload = dict(YTREE, question=question)
    base = decide_text(payload)
    for value in (False, None):
        assert decide_text(dict(payload, t_finite_character=value)) == base
    want = json.loads(base)
    want["metadata"]["t_finite_character"] = True
    if question == "inv":
        want["certificate"].append({
            "rule": "t-coincides-with-d",
            "statement": "on these trees the t-closure is the identity closure, so "
                         "the verdict applies verbatim to t-invertible ideals",
            "inputs": {}})
    assert decide_text(dict(payload, t_finite_character=True)) == canonical_json(want)


def field_paths(x, prefix=()):
    """Every key path of a JSON value, depth first."""
    items = x.items() if isinstance(x, dict) else enumerate(x) if isinstance(x, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from field_paths(value, prefix + (key,))


class CaseTimeout(BaseException):
    """A sweep case ran past its limit.  Not an ``Exception``, because
    ``main`` turns every ``Exception`` into exit 4."""


@contextmanager
def time_limit(case, seconds=10.0):
    """Fail ``case`` after ``seconds`` of wall clock, so that a hang names
    its input instead of holding the whole run (POSIX interval timer; no
    limit where there is none)."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise CaseTimeout(f"{case} ran past {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_many_branch_verify_is_bounded(tmp_path, capsys):
    """Two and four hundred ``F4`` branches over ``F2`` verify inside the
    sweeps' limit: the decision reads the quotient off the unit orders,
    and the cross-check runs the integer engine's cokernel once."""
    f4 = {"L": {"finite": {"p": 2, "r": 2}}, "e": 1}
    for branches in (200, 400):
        payload = {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": 2, "r": 1}},
                   "branches": [f4] * branches}
        target = write(tmp_path, payload)
        with time_limit(f"{branches} branches"):
            assert main(["verify", str(target), "--format", "json"]) == 0
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["ok"]) for c in checks] == \
            [("sequence-computed", True), ("amalgam-crosscheck", True)]


def test_many_part_amalgam_is_bounded(tmp_path, capsys):
    """A 512-part amalgam (1,278 generators in the sum) decides in 2 s, off
    its checked parts, and verifies inside the sweeps' limit, where the
    amalgam map is built and tested.  Presenting the quotient and bringing
    it to invariant factors took 51 s."""
    target = write(tmp_path, amalgam_payload(512, 1))
    with time_limit("512-part decide", 2.0):
        assert main(["decide", str(target), "--format", "json"]) == 0
    capsys.readouterr()
    with time_limit("512-part verify"):
        assert main(["verify", str(target), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"] == [
        {"check": "amalgam-isomorphism", "detail": "kernel and surjectivity verified",
         "ok": True}]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_dense_group_and_ses_are_bounded(tmp_path, capsys, seed):
    """A dense 64-generator ``group`` (64 relators with entries in
    ``[-3, 3]``) and a 41-generator ``ses`` whose left term is ``Z^40``
    modulo such a 40x40 matrix decide and verify inside the sweeps'
    limit.  A square nonsingular relation matrix presents a finite group
    of order ``|det|`` (Bareiss, not the eliminations), and the sequence
    splits by construction."""
    group, ses = dense_group_payload(64, seed), dense_ses_payload(40, seed)
    for payload in (group, ses):
        target = write(tmp_path, payload)
        with time_limit(payload["name"]):
            assert main(["decide", str(target), "--format", "json"]) == 0
            report = json.loads(capsys.readouterr().out)
            assert main(["verify", str(target), "--format", "json"]) == 0
        assert all(c["ok"] for c in json.loads(capsys.readouterr().out)["checks"])
        if payload is group:
            det = IntMatrix.from_cols(group["group"]["relators"], rows=64).det()
            assert prod(report["metadata"]["invariants"]) == abs(det) != 0
        else:
            assert report["metadata"] == {"splits": True}


def test_dense_invariant_factors_are_bounded():
    """The invariant factors of random ``[-9, 9]`` 28x28 relation matrices
    are the reference Smith diagonal's, each inside the sweeps' limit."""
    for seed in range(5):
        m = random_matrix(random.Random(seed), 28, 28, 9)
        with time_limit(f"28x28 seed {seed}"):
            got = FgGroup(28, m).invariant_factors
        d = diagonal(reference_snf(m)[1])
        assert got == tuple(x for x in d if x > 1) + (0,) * d.count(0)


def test_invariant_factors_ignore_row_and_column_order():
    """One ``[-3, 3]`` 30x60 relation matrix under six seeded row and
    column shufflings: the same invariant factors, each inside the sweeps'
    limit (through the Smith form with transforms they took 15 ms to
    5.0 s, by order alone)."""
    m = random_matrix(random.Random(0), 30, 60, 3)
    want = None
    for seed in range(1, 7):
        rng = random.Random(seed)
        rows = [list(r) for r in m.entries]
        rng.shuffle(rows)
        order = rng.sample(range(60), 60)
        shuffled = IntMatrix.from_rows([[r[j] for j in order] for r in rows], cols=60)
        with time_limit(f"shuffle {seed}"):
            got = FgGroup(30, shuffled).invariant_factors
        assert want is None or got == want
        want = got


def test_instance_mutation_sweep(tmp_path, capsys):
    """Every field of every shipped instance, and every boolean field the
    instance leaves out, replaced by values of each JSON type: no input
    ends in a traceback or an undocumented exit code.  Every other mutant
    runs both commands with ``--format json``, through ``canonical_json``."""
    instances = sorted(Path(__file__).resolve().parent.parent.glob("instances/*.json"))
    assert instances
    top_flags = {"noeth_local": ("integrally_closed", "conductor_nonzero", "local"),
                 "prufer_tree": ("locally_finite", "codim_finite", "t_finite_character"),
                 "valuation": ("maximal_principal", "maximal_branched")}
    runs = 0
    for f in instances:
        payload = json.loads(f.read_text(encoding="utf-8"))
        paths = list(field_paths(payload))
        paths += [(k,) for k in top_flags.get(payload["kind"], ())]
        # a tree node is a record with a label; an opaque field declares three flags
        paths += [p[:-1] + ("branched",) for p in paths
                  if p[-1] == "label" and payload["kind"] == "prufer_tree"]
        paths += [p + (k,) for p in paths if p[-1] == "opaque"
                  for k in ("unit_free", "quotient_free", "summand")]
        for path in dict.fromkeys(paths):
            for value in (None, True, -1, "x", [], {}):
                target = write(tmp_path, mutated(payload, path, value))
                fmt = ["--format", "json"] if runs % 2 else []
                case = (f.name, path, value)
                with time_limit(case):
                    assert main(["decide", str(target), *fmt]) in (0, 2, 3), case
                    assert main(["verify", str(target), *fmt]) in (0, 1, 2, 3), case
                capsys.readouterr()
                runs += 1
    assert runs > 1000


# the keys whose values are relator lists or map matrices in a diagram
DIAGRAM_MATRICES = {"relators", "inj", "surj", "f", "g", "h", "emb", "proj", "retract"}


def test_diagram_perturbation_sweep(tmp_path, capsys):
    """Every integer of every relator and map matrix of the shipped ``ses``,
    ``snake`` and ``amalgam`` instances, moved by ±1: ``decide`` decides or
    rejects the diagram (exit 3), never faults, and ``verify`` fails a check
    (exit 1) on exactly the diagrams that ``decide`` rejects."""
    exits = []
    for f in sorted(Path(__file__).resolve().parent.parent.glob("instances/*.json")):
        payload = json.loads(f.read_text(encoding="utf-8"))
        if payload["kind"] != "group_diagram" or payload["check"] == "group":
            continue
        for path in field_paths(payload):
            value = payload
            for key in path:
                value = value[key]
            if len(path) < 3 or path[-3] not in DIAGRAM_MATRICES or type(value) is not int:
                continue
            for moved in (value - 1, value + 1):
                target = write(tmp_path, mutated(payload, path, moved))
                case = (f.name, path, moved)
                with time_limit(case):
                    decided = main(["decide", str(target)])
                    verified = main(["verify", str(target)])
                capsys.readouterr()
                assert decided in (0, 3) and verified in (0, 1), case
                assert (decided == 3) == (verified == 1), case
                exits.append(decided)
    assert len(exits) > 100 and 0 in exits and 3 in exits


def test_ill_defined_map_names_its_matrix(tmp_path, capsys):
    """A map that is not well defined is rejected (exit 3) with the field of
    its matrix, in ``decide`` and in the failing ``verify`` check."""
    instances = Path(__file__).resolve().parent.parent / "instances"
    ses = json.loads((instances / "ses_nonsplit_torsion_quotient.json").read_text(encoding="utf-8"))
    amalgam = json.loads((instances / "amalgam_two_planes.json").read_text(encoding="utf-8"))
    # Z/2 → Z^2/(8,4) by (5,2) sends the relator 2 to (10,4), no relation;
    # each part embeds the amalgamated Z/2 into a free Z^2
    cases = [(mutated(ses, ("ses", "inj", 0, 0), 5), "ses.inj"),
             (mutated(amalgam, ("amalgam", "g", "relators"), [[2]]), "amalgam.parts[0].emb")]
    for payload, where in cases:
        message = f"{where}: not well-defined: image of relator 0 is not a relation of the target"
        target = write(tmp_path, payload)
        assert main(["decide", str(target)]) == 3
        assert capsys.readouterr().err == f"precondition violated: {message}\n"
        assert main(["verify", str(target), "--format", "json"]) == 1
        check = json.loads(capsys.readouterr().out)["checks"][0]
        assert (check["ok"], check["detail"]) == (False, message)


def test_import_loads_no_record_machinery():
    """Start-up is guarded by what it loads, not by how long it takes: a
    fresh interpreter without ``site`` imports ``igl.cli`` and none of
    ``dataclasses`` (whose class generation cost most of the import),
    ``inspect`` (which it pulls in) or ``typing``."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import igl.cli; "
             "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="POSIX signals")
def test_closed_stdout_ends_the_process_by_sigpipe():
    # ``igl decide instances/ | head -3``: the reader goes away, and the
    # process ends as any filter does, not with an internal error
    root = Path(cli.__file__).resolve().parents[2]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "igl.cli", "decide", str(root / "instances")],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(root / "src")})
    finally:
        os.close(write_end)
    assert proc.stderr == b""
    assert proc.returncode == -signal.SIGPIPE


def test_non_utf8_instance_exits_2_naming_the_file(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"v": 1, "name": "\xff"}')
    for cmd in ("decide", "verify"):
        assert main([cmd, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: cannot read file (") and "utf-8" in err


def test_path_the_os_refuses_exits_2_naming_it(tmp_path, capsys):
    # one component past every common file system's 255-byte limit
    path = tmp_path / ("x" * 300) / "inst.json"
    for cmd in ("decide", "expr", "verify"):
        assert main([cmd, str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: cannot read")


# ---------------------------------------------------------------------------
# The argv reader, against the argparse parser it replaced
# ---------------------------------------------------------------------------

def _reference_reading(parser, argv):
    out = StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(StringIO()):
            ns = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code == 0 and out.getvalue():
            return ("help",)
        return ("refused",) if exc.code == 2 and not out.getvalue() else ("exit", exc.code)
    return ("read", ns.command, getattr(ns, "path", None), getattr(ns, "format", None),
            getattr(ns, "trace", None))


def _record(got, command, path=None, format=None, trace=None):
    got.append(("read", command, path, format, trace))
    return 0


def test_argv_reads_as_the_former_argparse_parser(monkeypatch, capsys):
    """Every argv of the grid means what it meant to ``reference_parser``:
    the same command, path, format and trace, or help (exit 0, text on
    stdout), or a refusal (exit 2, nothing on stdout).  ``main`` runs with
    each handler replaced by a recorder.  Left out are the argv on which
    argparse itself differs between Python versions, where the reader
    keeps the older reading: ``-h`` with anything but more ``h``s
    attached (``-hx``, ``-h=h``) is refused, ``--`` before the command is
    refused, and an ambiguous option (``--=x``) after a help option is
    not reached, because the help comes first."""
    got = []
    for command, (_, takes_path, options) in list(cli.COMMANDS.items()):
        monkeypatch.setitem(cli.COMMANDS, command,
                            (partial(_record, got, command), takes_path, options))
    parser = reference_parser()
    seen = set()
    for argv in argv_grid():
        want = _reference_reading(parser, argv)
        got.clear()
        code = main(argv)
        out, err = capsys.readouterr()
        if got:
            reading = got[0] if code == 0 and len(got) == 1 else ("exit", code)
        elif code == 0 and out:
            reading = ("help",)
        elif code == 2 and not out and err.startswith("usage: igl") and "\nigl: error: " in err:
            reading = ("refused",)
        else:
            reading = ("exit", code)
        assert reading == want, argv
        seen.add(reading[0])
    assert seen == {"read", "help", "refused"}


def test_help_and_argv_errors_are_built_from_the_command_table(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: igl [-h] {decide,expr,verify,selftest} ...\n")
    for line in ("igl decide [-h] [--format {human,json}] [--trace {rules,full}] path",
                 "igl expr [-h] path", "igl verify [-h] [--format {human,json}] path",
                 "igl selftest [-h] [--format {human,json}]"):
        assert f"\n  {line}\n" in out
    assert main(["verify", "-h"]) == 0
    assert capsys.readouterr().out.startswith(
        "usage: igl verify [-h] [--format {human,json}] path\n")
    # main returns the status of a refused argv: it raises no SystemExit
    assert main([]) == 2
    assert capsys.readouterr() == ("", "usage: igl [-h] {decide,expr,verify,selftest} ...\n"
                                       "igl: error: the following arguments are required: "
                                       "command\n")
    assert main(["decide", "instances/dvr.json", "--form=xml"]) == 2
    assert capsys.readouterr().err == (
        "usage: igl decide [-h] [--format {human,json}] [--trace {rules,full}] path\n"
        "igl: error: argument --format: invalid choice: 'xml' (choose from human, json)\n")


def test_import_loads_no_argument_parser():
    """The command table is read without ``argparse``, and so without the
    ``gettext`` that it imports."""
    src = Path(cli.__file__).resolve().parents[1]
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import igl.cli; "
             "print(sorted({'argparse', 'gettext'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(src)], capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "[]\n"


# ---------------------------------------------------------------------------
# Keys outside a record's table are refused
# ---------------------------------------------------------------------------

INSTANCES = Path(__file__).resolve().parent.parent / "instances"

# one file of each kind, together holding every key of every record of
# ``cli.FIELDS``; each decides with exit 0
FULL_RECORDS = [
    {"v": 1, "kind": "prufer_tree", "name": "t", "source": "s", "question": "inv",
     "locally_finite": True, "codim_finite": False, "t_finite_character": None,
     "root": {"id": "0", "children": [
         {"id": "P", "label": ["Z"], "branched": True, "children": [
             {"id": "M", "label": ["Z"], "branched": True}]}]}},
    {"v": 1, "kind": "noeth_local", "k": {"finite": {"p": 2, "r": 1}},
     "branches": [{"L": {"finite": {"p": 2, "r": 2}}, "e": 1},
                  {"L": {"opaque": {"label": "L", "characteristic": 2, "unit_free": None,
                                    "quotient_free": None, "summand": None}}, "e": 2}],
     "integrally_closed": False, "conductor_nonzero": True, "local": True},
    {"v": 1, "kind": "scattered_space", "bound": "w", "labels": {"0": ["Z"], "1": ["Q"]}},
    {"v": 1, "kind": "valuation", "tower": ["Z"], "group": "div",
     "maximal_principal": True, "maximal_branched": True},
    {"v": 1, "kind": "krull", "variant": "UFD"},
    *(json.loads((INSTANCES / name).read_text(encoding="utf-8"))
      for name in ("torsion_group.json", "ses_split.json", "snake_ladder.json",
                   "amalgam_two_planes.json")),
]

# keys read before a record's keys are: the version and kind, which name the
# file's table, a diagram's check, which names its term, and a node's id,
# which names the node
READ_FIRST = {"v", "kind", "check", "id"}


def misspelt(key: str) -> str:
    return key[:-1] if len(key) > 1 else key * 2


def renamed_keys(payload):
    """``(key, payload with that one key misspelt)`` for every key of every
    record, in document order; a scattered space's ``labels`` keys are
    strata, not fields."""
    def walk(x, path):
        if isinstance(x, list):
            for i, v in enumerate(x):
                yield from walk(v, path + (i,))
        elif isinstance(x, dict) and path[-1:] != ("labels",):
            for key, v in x.items():
                if key not in READ_FIRST:
                    yield path, key
                yield from walk(v, path + (key,))

    for path, key in list(walk(payload, ())):
        out = json.loads(json.dumps(payload))
        rec = out
        for step in path:
            rec = rec[step]
        items = list(rec.items())
        rec.clear()
        rec.update((misspelt(k) if k == key else k, v) for k, v in items)
        yield key, out


def test_every_misspelt_key_exits_2_naming_it(tmp_path, capsys):
    """A misspelt key, optional or not, is a schema error under ``decide``
    and ``verify``: exit 2 and one stderr line that names it, where it
    used to take its field's default silently."""
    seen = set()
    for payload in FULL_RECORDS:
        path = str(write(tmp_path, payload))
        assert main(["decide", path]) == 0, payload["kind"]
        capsys.readouterr()
        for key, bad in renamed_keys(payload):
            seen.add(key)
            path = str(write(tmp_path, bad))
            for cmd in ("decide", "verify"):
                assert main([cmd, path]) == 2, (key, cmd)
                out, err = capsys.readouterr()
                assert out == "" and err.count("\n") == 1, (key, err)
                assert "unknown key" in err and misspelt(key) in err, (key, err)
    # a diagram's term is a key of its file too, the one its check names
    table = {k for fields in cli.FIELDS.values() for k in fields}
    assert seen == table - READ_FIRST


@pytest.mark.parametrize("payload,message", [
    (mutated(json.loads((INSTANCES / "torsion_group.json").read_text(encoding="utf-8")),
             ("group",), {"generators": 2, "relator": [[2, 0], [0, 6]]}),
     "group.relator: unknown key"),
    (dict(YTREE, questoin="div"), "questoin: unknown key"),
    (mutated(YTREE, ("root", "children", 0, "branch"), False),
     "root.children[0].branch: unknown key"),
    (mutated(YTREE, ("root", "children", 0, "a b"), False),
     "root.children[0]: unknown key 'a b'"),
    (mutated(CURVE, ("branches", 0, "L", "opaque", "unit free"), True),
     "branches[0].L.opaque: unknown key 'unit free'"),
    (dict(DVR, **{"a\nb": 1}), "unknown key 'a\\nb'"),
    (dict(SES, group={"generators": 1}), "group: unknown key"),
], ids=["group", "file", "tree-node", "quoted-tree-node", "quoted", "quoted-file",
        "diagram-term"])
def test_unknown_key_names_its_record(tmp_path, capsys, payload, message):
    """A key that is a name is named in the path, any other is quoted
    beside its record's path (a file's has none), so the line stays one."""
    for cmd in ("decide", "verify"):
        path = write(tmp_path, payload)
        assert main([cmd, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")
