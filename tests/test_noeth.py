import json
import random
import sys
import time
from itertools import combinations_with_replacement, product
from math import gcd
from pathlib import Path

import pytest

from igl import abelian, cli, matrices, noeth
from igl.errors import PreconditionError, SchemaError
from igl.matrices import IntMatrix
from igl.noeth import (Branch, FiniteField, NoethInstance, OpaqueField,
                       decide_noeth, krull_verdict, unit_group,
                       unit_quotient_seq)
from igl.valgroup import (Cyclic, Verdict, canonical_invariants, direct_sum,
                          expr_invariant_factors, freeness_verdict, normalize,
                          render_expr)
from oracles import cyclic_amalgam_parts, parse_expr

INSTANCES = Path(__file__).resolve().parent.parent / "instances"


def finite(p, r=1):
    return FiniteField(p, r)


def inst(k, branches, **kw):
    return NoethInstance(k, tuple(Branch(f, e) for f, e in branches), **kw)


def field_rec(f):
    """The instance-file record of a field description."""
    return {"finite" if isinstance(f, FiniteField) else "opaque": f._asdict()}


def parsed(k, branches):
    """``inst(k, branches)`` read back through the instance parse, which
    refuses what an instance file may not say."""
    return cli.parse_noeth({"k": field_rec(k),
                            "branches": [{"L": field_rec(f), "e": e} for f, e in branches]})


def refusal(parse, *args):
    """The message of the ``SchemaError`` that ``parse(*args)`` raises."""
    with pytest.raises(SchemaError) as exc:
        parse(*args)
    return str(exc.value)


# ---------------------------------------------------------------------------
# unit groups
# ---------------------------------------------------------------------------

def test_unit_group_finite_fields():
    assert render_expr(unit_group(finite(2))) == "0"
    g5 = unit_group(finite(5))
    assert render_expr(g5) == "Z/4"
    assert freeness_verdict(g5).verdict is Verdict.NOT_FREE


def test_unit_group_opaque():
    free_field = OpaqueField("F2(XX)", characteristic=2, unit_free=True)
    assert freeness_verdict(unit_group(free_field)).verdict is Verdict.FREE
    char0 = OpaqueField("K", characteristic=0)
    assert freeness_verdict(unit_group(char0)).verdict is Verdict.NOT_FREE


# ---------------------------------------------------------------------------
# the decision
# ---------------------------------------------------------------------------

def test_case_a_monomial_curve():
    k = OpaqueField("K", characteristic=0)
    res = decide_noeth(inst(k, [(k, 2)]))
    assert res.verdict is Verdict.NOT_FREE
    assert res.metadata["case"] == "a"
    assert any(s.rule == "conductor-not-radical" for s in res.certificate)


def test_case_b_pullback_free():
    k = OpaqueField("Q", characteristic=0)
    L = OpaqueField("Q(z7+1/z7)", characteristic=0, quotient_free=True)
    res = decide_noeth(inst(k, [(L, 1)]))
    assert res.verdict is Verdict.FREE and res.metadata["case"] == "b"


def test_case_b_function_field_not_free():
    k = OpaqueField("F2(X^2)", characteristic=2)
    L = OpaqueField("F2(X)", characteristic=2, quotient_free=False)
    res = decide_noeth(inst(k, [(L, 1)]))
    assert res.verdict is Verdict.NOT_FREE


def test_case_b_missing_declaration_unknown():
    k = OpaqueField("K", characteristic=2)
    L = OpaqueField("L", characteristic=2)
    assert decide_noeth(inst(k, [(L, 1)])).verdict is Verdict.UNKNOWN


def test_case_c_char_not_two():
    res = decide_noeth(inst(finite(3), [(finite(3, 2), 1), (finite(3, 2), 1)]))
    assert res.verdict is Verdict.NOT_FREE and res.metadata["case"] == "c"
    assert any(s.rule == "residue-char-not-two" for s in res.certificate)


def test_case_c_all_f2_free():
    res = decide_noeth(inst(finite(2), [(finite(2), 1), (finite(2), 1)]))
    assert res.verdict is Verdict.FREE


def test_all_trivial_data_free():
    k = finite(2)
    assert decide_noeth(inst(k, [(k, 1)])).verdict is Verdict.FREE


def test_integrally_closed_routes_to_krull():
    res = decide_noeth(inst(finite(5), [(finite(5), 1)], integrally_closed=True))
    assert res.verdict is Verdict.FREE
    assert res.metadata["case"] == "integrally-closed"
    assert any(s.rule == "krull-free-basis" for s in res.certificate)


def test_zero_conductor_rejected():
    with pytest.raises(PreconditionError):
        decide_noeth(inst(finite(2), [(finite(2), 1)], conductor_nonzero=False))


def test_nonlocal_reports_principal_group():
    res = decide_noeth(inst(finite(2), [(finite(2), 2)], local=False))
    assert res.metadata["target_group"] == "Princ"
    assert res.verdict is Verdict.NOT_FREE


def test_schema_validation():
    assert refusal(cli.parse_field_desc, {"finite": {"p": 4}}, "k") == "k.finite.p: 4 is not prime"
    assert refusal(parsed, finite(2), [(finite(2), 1), (finite(3), 1)]) == \
        "branches[1].L: characteristic 3 differs from k's 2"
    assert refusal(parsed, finite(2, 2), [(finite(2, 3), 1)]) == \
        "branches[0].L: F4 does not embed into F8"
    assert refusal(parsed, finite(2), [(finite(2), 0)]) == "branches[0].e: must be an integer >= 1"


def test_parse_reports_the_first_fault_in_document_order():
    # a record's fields before the facts that relate them: a field's flags
    # before its characteristic, a branch's exponent before its field, and
    # k first
    k_bad_flag = {"opaque": {"label": "K", "characteristic": 4, "unit_free": "no"}}
    assert refusal(cli.parse_noeth, {"k": k_bad_flag, "branches": [{"L": {"finite": {"p": 2}}}]}) \
        == "k.opaque.unit_free: must be true, false or null"
    branch = {"L": {"finite": {"p": 3}}, "e": 0}
    assert refusal(cli.parse_noeth, {"k": {"finite": {"p": 2}}, "branches": [branch]}) == \
        "branches[0].e: must be an integer >= 1"
    assert refusal(cli.parse_noeth, {"k": {"finite": {"p": 4}}, "branches": [branch]}) == \
        "k.finite.p: 4 is not prime"


# ---------------------------------------------------------------------------
# exhaustive finite-field behavior
# ---------------------------------------------------------------------------

def prime_powers(limit):
    out = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        q, r = p, 1
        while q <= limit:
            out.append((p, r, q))
            q *= p
            r += 1
    return out


def test_finite_field_exhaustion():
    started = time.perf_counter()
    pps = prime_powers(64)
    # case (b): free iff the extension is trivial
    for (p, s, ps) in pps:
        for (p2, r, pr) in pps:
            if p2 != p or r % s != 0:
                continue
            res = decide_noeth(inst(finite(p, s), [(finite(p, r), 1)]))
            assert (res.verdict is Verdict.FREE) == (r == s), (p, s, r)
    # case (c): free iff every field is F2
    for (p, s, ps) in pps:
        subs = [(p2, r, pr) for (p2, r, pr) in pps if p2 == p and r % s == 0]
        for (_, r1, q1) in subs:
            for (_, r2, q2) in subs:
                res = decide_noeth(inst(finite(p, s),
                                        [(finite(p, r1), 1), (finite(p, r2), 1)]))
                expect_free = (q1 == 2 and q2 == 2 and ps == 2)
                assert (res.verdict is Verdict.FREE) == expect_free, (p, s, r1, r2)
    assert time.perf_counter() - started < 1.0


def test_case_a_ignores_fields():
    rng = random.Random(5)
    fields = [finite(2), finite(3), finite(5, 2),
              OpaqueField("K", characteristic=0, unit_free=True),
              OpaqueField("L", characteristic=0, quotient_free=True)]
    for _ in range(30):
        k = rng.choice(fields)
        same_char = [f for f in fields if f.characteristic == k.characteristic]
        n = rng.randint(1, 3)
        branches = [(rng.choice(same_char), 1) for _ in range(n)]
        branches[rng.randrange(n)] = (branches[0][0], rng.randint(2, 4))
        assert decide_noeth(inst(k, branches)).verdict is Verdict.NOT_FREE


# ---------------------------------------------------------------------------
# the unit quotient
# ---------------------------------------------------------------------------

def test_seq_integrally_closed():
    closed = inst(finite(2), [(finite(2), 1)], integrally_closed=True)
    assert render_expr(unit_quotient_seq(closed)) == "0"
    assert closed.case() == "integrally-closed"


def test_seq_case_b_finite():
    quotient = unit_quotient_seq(inst(finite(2), [(finite(2, 2), 1)]))
    assert expr_invariant_factors(quotient) == (3,)


def test_seq_case_c_finite_matches_direct_computation():
    quotient = unit_quotient_seq(inst(finite(2), [(finite(2, 2), 1), (finite(2, 2), 1)]))
    # (Z/3 ⊕ Z/3) / diagonal(trivial) with U(k) trivial: full product
    assert expr_invariant_factors(quotient) == (3, 3)
    quotient2 = unit_quotient_seq(inst(finite(3), [(finite(3, 2), 1), (finite(3, 2), 1)]))
    # (Z/8 ⊕ Z/8)/diag(Z/2): order 32
    inv = expr_invariant_factors(quotient2)
    assert inv is not None
    total = 1
    for d in inv:
        total *= d
    assert total == 32


def test_seq_case_c_amalgam_crosscheck():
    # k = F2, L_i = F4: U(k) trivial, U(L_i) = Z/3 = B_i ⊕ 0
    m, n = 1, 3
    g = abelian.FgGroup.cyclic(m)
    grp = abelian.FgGroup.cyclic(n)
    comp = abelian.FgGroup.cyclic(n)
    emb = abelian.FgHom(g, grp, IntMatrix.from_rows([[n // m]], cols=1))
    proj = abelian.FgHom(grp, comp, IntMatrix.identity(1))
    retract = abelian.FgHom(grp, g, IntMatrix.from_rows([[0]], cols=1))
    part = abelian.AmalgamPart(grp, emb, comp, proj, retract)
    quotient = unit_quotient_seq(inst(finite(2), [(finite(2, 2), 1), (finite(2, 2), 1)]))
    assert abelian.amalgam_quotient(g, [part, part]) == expr_invariant_factors(quotient)
    assert abelian.check_diagram("amalgam", g, [part, part])[0][1]


def _finite_fields(limit):
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        r = 1
        while p ** r <= limit:
            yield finite(p, r)
            r += 1


def _engine_quotient(m, orders):
    """Invariant factors of the integer engine's cokernel of the diagonal
    ``Z/m → ⊕ Z/n_i``."""
    diag = IntMatrix.from_rows([[n // m] for n in orders], cols=1)
    emb = abelian.FgHom(abelian.FgGroup.cyclic(m), abelian.FgGroup.from_invariants(*orders),
                        diag)
    return abelian.cokernel(emb).invariant_factors


def test_case_c_standard_form_amalgam_and_sequence_agree():
    """Over every finite residue field with 2 or 3 branches up to order 64,
    ``unit_quotient_seq`` and the integer engine's cokernel give the same
    invariant factors.  Where ``U(k)`` is a summand of every ``U(L_i)``,
    the standard form ``Z/(n_i/m) ⊕ (Z/m)^(b-1)`` and the amalgam of the
    hand-built reference parts agree with them too.  On random fields with
    unit orders of up to 4096 bits, and one to three branches, the rule
    agrees with the engine."""
    fields = list(_finite_fields(64))
    runs = summands = 0
    for k in fields:
        m = k.unit_order
        over = [L for L in fields if L.p == k.p and L.r % k.r == 0]
        for b in (2, 3):
            for ls in combinations_with_replacement(over, b):
                orders = [L.unit_order for L in ls]
                seq = expr_invariant_factors(unit_quotient_seq(inst(k, [(L, 1) for L in ls])))
                assert _engine_quotient(m, orders) == seq, (k, ls)
                runs += 1
                if any(gcd(m, n // m) != 1 for n in orders):
                    continue
                standard = canonical_invariants([n // m for n in orders] + [m] * (b - 1))
                g, parts = cyclic_amalgam_parts(m, orders)
                assert abelian.amalgam_quotient(g, parts) == standard == seq, (k, ls)
                assert abelian.check_diagram("amalgam", g, parts)[0][1], (k, ls)
                summands += 1
    assert runs > summands > 100
    rng = random.Random(21)
    # characteristic -> the largest degree whose field order has at most
    # 4096 bits (the parse refuses one more)
    tops = {2: 4095, 3: 2584, 5: 1764, 7: 1459, 1_000_003: 205, 2**61 - 1: 67}
    for _ in range(300):
        p, top = rng.choice(list(tops.items()))
        s = rng.randint(1, 8)
        ls = [finite(p, s * rng.randint(1, top // s)) for _ in range(rng.randint(1, 3))]
        seq = expr_invariant_factors(unit_quotient_seq(inst(finite(p, s), [(L, 1) for L in ls])))
        assert _engine_quotient(p ** s - 1, [L.unit_order for L in ls]) == seq, (p, s, ls)


def test_finite_unit_quotient_needs_no_integer_engine(monkeypatch):
    """Four hundred branches decide without any matrix elimination: the
    finite-field unit quotient is read off the invariant factors of the
    unit orders."""
    def refuse(*args, **kwargs):
        raise RuntimeError("the unit quotient called the integer engine")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "igl":
            for engine in ("_diagonal_form", "unit_core"):
                if getattr(module, engine, None) is getattr(matrices, engine):
                    monkeypatch.setattr(module, engine, refuse)
    f2, f4, f16 = finite(2), finite(2, 2), finite(2, 4)
    quotient = unit_quotient_seq(inst(f2, [(f4, 1)] * 400))
    assert expr_invariant_factors(quotient) == (3,) * 400
    # over F4 the residue units Z/3 leave the first Z/15 as Z/5
    quotient = unit_quotient_seq(inst(f4, [(f16, 1)] * 400))
    assert expr_invariant_factors(quotient) == (5,) + (15,) * 399
    assert decide_noeth(inst(f2, [(f4, 1)] * 400)).verdict is Verdict.NOT_FREE


def test_amalgam_crosscheck_fails_a_dropped_torsion_factor(tmp_path, capsys, monkeypatch):
    """A finite-field unit quotient that loses one torsion factor fails the
    engine cross-check of its case, with or without ``U(k)`` a summand of
    every ``U(L_i)``, and ``verify`` exits 1."""
    seq = unit_quotient_seq

    def dropped(instance):
        inv = expr_invariant_factors(seq(instance))
        return normalize(direct_sum(*[Cyclic(d) for d in inv[1:]]))
    monkeypatch.setattr(noeth, "unit_quotient_seq", dropped)
    k4 = {"finite": {"p": 2, "r": 2}}
    k16 = {"finite": {"p": 2, "r": 4}}
    payloads = [json.loads((INSTANCES / "f2_f4_two_branches.json").read_text(encoding="utf-8")),
                {"v": 1, "kind": "noeth_local", "k": k4,
                 "branches": [{"L": k16, "e": 1}, {"L": k16, "e": 1}, {"L": k4, "e": 1}]},
                json.loads((INSTANCES / "two_branches_char3.json").read_text(encoding="utf-8")),
                {"v": 1, "kind": "noeth_local", "k": k4,
                 "branches": [{"L": {"finite": {"p": 2, "r": 6}}, "e": 1}]}]
    labels = ["amalgam-crosscheck"] * 3 + ["quotient-crosscheck"]
    for payload, label in zip(payloads, labels):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["verify", str(path), "--format", "json"]) == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["check"], c["ok"]) for c in checks] == \
            [("sequence-computed", True), (label, False)]


def test_seq_case_c_opaque_shape():
    k = OpaqueField("k", characteristic=2, unit_free=True)
    L = OpaqueField("L", characteristic=2, unit_free=True, summand=True)
    text = render_expr(unit_quotient_seq(inst(k, [(L, 1), (L, 1), (L, 1)])))
    assert "complement" in text
    assert "^2" in text  # two copies of U(k)


@pytest.mark.parametrize("free", [True, False, None])
def test_seq_case_c_opaque_residue_units_free_inside_a_free_branch(free):
    # U(k) is a subgroup of every U(L_i), so one free U(L_i) makes it free
    k = OpaqueField("K", characteristic=2)
    L1 = OpaqueField("L1", characteristic=2, unit_free=free)
    L2 = OpaqueField("L2", characteristic=2)
    units = unit_quotient_seq(inst(k, [(L1, 1), (L2, 1)]))
    assert ('opaque("U(K)",free=yes)' in render_expr(units)) == (free is True)


def test_case_c_opaque_free_expression_is_free():
    k = OpaqueField("K", characteristic=2)
    branches = [(OpaqueField(f"L{i}", characteristic=2, unit_free=True, summand=True), 1)
                for i in (1, 2)]
    d = decide_noeth(inst(k, branches))
    assert d.verdict is Verdict.FREE
    assert freeness_verdict(d.expr).verdict is Verdict.FREE


def test_case_c_opaque_expression_reads_the_decision():
    # every declaration pattern of a char-2 residue and two char-2 branches:
    # the verdict is the one the report's own expression reads.  A residue
    # declared not free beside a branch declared free is refused: 81
    # patterns of the other four flags, less the 36 with neither branch
    # declared free
    decided = refused = 0
    for flags in product((True, False, None), repeat=5):
        k = OpaqueField("K", characteristic=2, unit_free=flags[0])
        branches = [(OpaqueField(f"L{i}", characteristic=2, unit_free=flags[2 * i - 1],
                                 summand=flags[2 * i]), 1) for i in (1, 2)]
        try:
            d = decide_noeth(parsed(k, branches))
        except SchemaError:
            assert flags[0] is False and True in (flags[1], flags[3]), flags
            refused += 1
            continue
        assert freeness_verdict(d.expr).verdict is d.verdict, flags
        decided += d.verdict is not Verdict.UNKNOWN
    assert (refused, decided) == (45, 168)


@pytest.mark.parametrize("char", [0, 2, 3])
def test_residue_declared_unfree_beside_a_branch_declared_free_is_refused(char):
    # U(k) is a subgroup of U(L1), so a free U(L1) makes U(k) free
    k = OpaqueField("K", characteristic=char, unit_free=False)
    branches = [(OpaqueField("L1", characteristic=char, unit_free=None), 1),
                (OpaqueField("L2", characteristic=char, unit_free=True), 1)]
    assert refusal(parsed, k, branches) == (
        "branches[1].L.opaque.unit_free: contradictory declarations: true, but "
        "k.opaque.unit_free is false, and U(k) is a subgroup of U(L)")
    # a branch not declared free, or a residue not declared unfree, is none
    parsed(k, branches[:1])
    parsed(k._replace(unit_free=None), branches)


def test_contradictory_unit_declarations_exit_2(tmp_path, capsys):
    opaque = {"label": "L", "characteristic": 2, "unit_free": True, "summand": True}
    payload = {"v": 1, "kind": "noeth_local",
               "k": {"opaque": {"label": "K", "characteristic": 2, "unit_free": False}},
               "branches": [{"L": {"opaque": dict(opaque, label=f"L{i}")}, "e": 1}
                            for i in (1, 2)]}
    path = tmp_path / "contradiction.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    for command in ("decide", "verify"):
        assert cli.main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: branches[0].L.opaque.unit_free: "
                              "contradictory declarations: true, but k.opaque.unit_free")


def test_case_c_grid_reports_read_their_verdict():
    # residues F2, F4, F8 and char-2 opaque fields, two branches: every
    # report's parsed expression decides to the report's verdict
    finite_fields = [{"finite": {"p": 2, "r": r}} for r in (1, 2, 3)]
    flags = (True, False, None)

    def opaque(label, **declared):
        fields = {key: v for key, v in declared.items() if v is not None}
        return {"opaque": {"label": label, "characteristic": 2, **fields}}

    residues = finite_fields + [opaque("K", unit_free=uf) for uf in flags]
    branch_fields = [finite_fields + [opaque(label, unit_free=uf, summand=sm)
                                      for uf, sm in product(flags, flags)]
                     for label in ("L1", "L2")]
    verdicts = set()
    for k, L1, L2 in product(residues, *branch_fields):
        payload = {"v": 1, "kind": "noeth_local", "k": k,
                   "branches": [{"L": L1}, {"L": L2}]}
        try:
            report = cli.decide_payload(payload, "grid")
        except SchemaError:
            continue
        assert freeness_verdict(parse_expr(report.expr)).verdict.value == report.verdict, \
            (k, L1, L2, report.expr)
        verdicts.add(report.verdict)
    assert verdicts == {"Free", "NotFree", "Unknown"}


def test_finite_residue_torsion_makes_opaque_branch_units_not_free():
    # U(F4) is a subgroup of U(L1), and its torsion outweighs a declaration
    # that U(L1) is free; a declared-not-free branch keeps its declaration
    # and a residue with trivial units adds nothing
    branches = [(OpaqueField(f"L{i}", characteristic=2, unit_free=free, summand=True), 1)
                for i, free in ((1, True), (2, False))]

    def unit_details(k):
        d = decide_noeth(inst(k, branches))
        return d.verdict, [dict(s.inputs)["unit_free"] for s in d.certificate]

    assert unit_details(finite(2, 2)) == (Verdict.NOT_FREE, [
        "U(L1) contains U(F4), cyclic of order 3", "declared: U(L2) free=False"])
    assert unit_details(finite(2)) == (Verdict.NOT_FREE, [
        "declared: U(L1) free=True", "declared: U(L2) free=False"])
    quotient = unit_quotient_seq(inst(finite(2, 3), branches[:1] * 2))
    assert render_expr(quotient) == 'opaque("U(closure)/U(D)",free=no)'


# ---------------------------------------------------------------------------
# Krull verdicts
# ---------------------------------------------------------------------------

def test_krull_verdicts():
    for kind in ("krull", "dedekind", "UFD"):
        rep = krull_verdict(kind)
        assert rep.verdict is Verdict.FREE
        assert rep.metadata["groups"] == {"Div": "Free", "Inv": "Free", "Princ": "Free"}
        assert rep.metadata["basis"] == "height-one primes"
    assert refusal(cli.parse_krull, {"variant": "noetherian"}) == \
        "variant: must be 'krull', 'dedekind' or 'UFD'"


# ---------------------------------------------------------------------------
# bounded primality
# ---------------------------------------------------------------------------

def trial_division_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def test_miller_rabin_matches_trial_division():
    from igl.noeth import _is_prime
    assert [n for n in range(20000) if _is_prime(n)] == \
        [n for n in range(20000) if trial_division_prime(n)]


def test_miller_rabin_on_large_inputs():
    from igl.noeth import _is_prime
    assert _is_prime(2**61 - 1) and _is_prime(1000000007)
    # strong pseudoprimes to the prime bases up to 23 and up to 37
    assert not _is_prime(3825123056546413051)
    assert not _is_prime(318665857834031151167461)
    assert not _is_prime(561) and not _is_prime((2**61 - 1) * (2**31 - 1))


def test_characteristic_cap():
    from igl.noeth import PRIME_BOUND
    beyond = f"must be an integer from {{}} to {PRIME_BOUND - 1}"
    assert refusal(cli.parse_field_desc, field_rec(FiniteField(PRIME_BOUND)), "k") == \
        "k.finite.p: " + beyond.format(2)
    assert refusal(cli.parse_field_desc,
                   field_rec(OpaqueField("K", characteristic=2**127 - 1)), "k") == \
        "k.opaque.characteristic: " + beyond.format(0)
    assert refusal(cli.parse_field_desc, field_rec(FiniteField(1000000007, 1000)), "k") == \
        "k.finite.r: field order 1000000007^1000 has more than 4096 bits"


@pytest.mark.parametrize("r", [2, 3])
def test_mersenne_characteristic_decides_and_verifies(r, tmp_path, capsys):
    import json
    from igl.cli import main
    p = 2**61 - 1
    path = tmp_path / "big.json"
    path.write_text(json.dumps({
        "v": 1, "kind": "noeth_local", "k": {"finite": {"p": p}},
        "branches": [{"L": {"finite": {"p": p, "r": r}}}]}), encoding="utf-8")
    started = time.perf_counter()
    assert main(["decide", str(path)]) == 0
    assert main(["verify", str(path)]) == 0
    assert time.perf_counter() - started < 5
    assert "FAIL" not in capsys.readouterr().out
