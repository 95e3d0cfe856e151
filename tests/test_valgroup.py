from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igl.errors import SchemaError
from igl.valgroup import (Cyclic, DirectSum, LexTower, Opaque, Q, R,
                          Repeated, TRIVIAL, UNKNOWN, ValueTower, Verdict, Z,
                          ZPROD, canonical_invariants, div_of_valuation,
                          direct_sum, expr_invariant_factors, fg_expr, freeness_verdict,
                          inv_of_valuation, normal_sum, normalize, render_expr,
                          render_normal, unbranched_valuation_verdict)
from oracles import (divisible_ref, expr_rank, freeness_verdict_ref, has_divisible,
                     has_torsion, invariant_factors_ref, parse_expr, reference_normal_sum,
                     reference_render_normal, torsion_ref)


def verdict(e):
    return freeness_verdict(e).verdict


# ---------------------------------------------------------------------------
# verdict rules
# ---------------------------------------------------------------------------

def test_basic_verdicts():
    assert verdict(direct_sum(Z, Z, Z)) is Verdict.FREE
    assert verdict(Q) is Verdict.NOT_FREE
    assert verdict(R) is Verdict.NOT_FREE
    assert verdict(ZPROD) is Verdict.NOT_FREE
    assert verdict(Cyclic(5)) is Verdict.NOT_FREE
    assert verdict(TRIVIAL) is Verdict.FREE
    assert verdict(UNKNOWN) is Verdict.UNKNOWN
    assert verdict(fg_expr((2, 0))) is Verdict.NOT_FREE
    assert verdict(fg_expr((0, 0))) is Verdict.FREE


def test_opaque_verdicts():
    assert verdict(Opaque("u", is_free=True)) is Verdict.FREE
    assert verdict(Opaque("u", is_free=False)) is Verdict.NOT_FREE
    assert verdict(Opaque("u", is_torsionfree=False)) is Verdict.NOT_FREE
    assert verdict(Opaque("u", has_divisible=True)) is Verdict.NOT_FREE
    assert verdict(Opaque("u")) is Verdict.UNKNOWN


def test_sum_propagation_rules():
    # free + free stays free, including infinite multiplicities
    assert verdict(Repeated(Z, "w^2")) is Verdict.FREE
    assert verdict(direct_sum(Repeated(Z, "w"), Z)) is Verdict.FREE
    # torsion and divisible witnesses survive in summands
    assert verdict(direct_sum(Z, Cyclic(4))) is Verdict.NOT_FREE
    assert verdict(direct_sum(Z, Q)) is Verdict.NOT_FREE
    assert verdict(direct_sum(Repeated(Cyclic(2), "w"), Z)) is Verdict.NOT_FREE
    # a summand that is not free makes the sum not free: a direct summand
    # is a subgroup, and subgroups of free groups are free
    assert verdict(direct_sum(ZPROD, Z)) is Verdict.NOT_FREE
    assert verdict(direct_sum(Opaque("u", is_free=False), Z)) is Verdict.NOT_FREE


def test_expressions_equal_only_their_own_type():
    # as plain tuples, a sum and a tower of the same parts would be equal
    # and a run of sums would absorb the tower
    s, t = DirectSum((Z, Q)), LexTower((Z, Q))
    assert s != t and not s == t and len({s, t, Cyclic(2), Repeated(Z, 2)}) == 4
    assert render_expr(direct_sum(Repeated(s, 2), t)) == "(Z ⊕ Q)^2 ⊕ lex(Z;Q)"
    assert repr(direct_sum(Z, t)) == \
        "DirectSum(parts=(IntegersZ(), LexTower(levels=(IntegersZ(), RationalsQ()))))"


def test_lex_freeness_via_underlying_sum():
    assert verdict(LexTower((Z, Z))) is Verdict.FREE
    assert verdict(LexTower((Z, Q))) is Verdict.NOT_FREE
    assert verdict(LexTower((Z, UNKNOWN))) is Verdict.UNKNOWN


def test_witness_predicates():
    assert has_torsion(direct_sum(Z, Cyclic(3))) is True
    assert has_torsion(Z) is False
    assert has_torsion(Opaque("u")) is None
    assert has_divisible(LexTower((Z, R))) is True
    assert has_divisible(ZPROD) is False


def test_every_definite_verdict_has_certificate():
    for e in (Z, Q, R, ZPROD, Cyclic(4), Opaque("u", is_free=False),
              direct_sum(Z, Cyclic(2)), Repeated(Z, 3)):
        res = freeness_verdict(e)
        if res.verdict is not Verdict.UNKNOWN:
            assert len(res.certificate) >= 1
            assert all(s.rule for s in res.certificate)


# ---------------------------------------------------------------------------
# invariant factors of finitely generated expressions
# ---------------------------------------------------------------------------

def test_expr_invariants():
    assert expr_invariant_factors(direct_sum(Z, Cyclic(2), Cyclic(3))) == (6, 0)
    assert expr_invariant_factors(Repeated(Z, 3)) == (0, 0, 0)
    assert expr_invariant_factors(direct_sum(Cyclic(2), Cyclic(2))) == (2, 2)
    assert expr_invariant_factors(Q) is None
    assert expr_invariant_factors(Repeated(Z, "w")) is None
    assert expr_rank(LexTower((Z, Z))) == 2


# ---------------------------------------------------------------------------
# rendering round-trip
# ---------------------------------------------------------------------------

atoms = st.sampled_from([Z, Q, R, ZPROD, UNKNOWN, TRIVIAL,
                         Cyclic(2), Cyclic(9), Opaque("U(k)", is_free=True),
                         Opaque("L*/K*"), Opaque("t", is_torsionfree=False)])


def exprs(depth=2):
    if depth == 0:
        return atoms
    sub = exprs(depth - 1)
    return st.one_of(
        atoms,
        st.lists(sub, min_size=1, max_size=3).map(lambda xs: DirectSum(tuple(xs))),
        st.lists(sub, min_size=1, max_size=3).map(lambda xs: LexTower(tuple(xs))),
        st.tuples(sub, st.one_of(st.integers(2, 4), st.sampled_from(["w", "w^2"])))
          .map(lambda t: Repeated(*t)),
    )


@given(exprs())
@settings(max_examples=200, deadline=None)
def test_render_parse_roundtrip(e):
    text = render_expr(e)
    again = parse_expr(text)
    assert render_expr(again) == text


def test_canonical_rendering_examples():
    assert render_expr(direct_sum(Z, LexTower((Z, Q)), R)) == "Z ⊕ lex(Z;Q) ⊕ R"
    assert render_expr(direct_sum(Z, Z, Z)) == "Z^3"
    assert render_expr(TRIVIAL) == "0"
    assert render_expr(normalize(fg_expr((2, 6, 0)))) == "Z/2 ⊕ Z/6 ⊕ Z"
    assert render_expr(Repeated(Z, "w")) == "Z^(w)"


def test_parse_rejects_junk():
    with pytest.raises(SchemaError):
        parse_expr("Z ⊕")
    with pytest.raises(SchemaError):
        parse_expr("lex()")
    with pytest.raises(SchemaError):
        parse_expr("opaque(nolabel)")


# ---------------------------------------------------------------------------
# value towers
# ---------------------------------------------------------------------------

def test_inv_of_valuation():
    assert render_expr(inv_of_valuation(ValueTower.from_names(["Z"]))) == "Z"
    q = inv_of_valuation(ValueTower.from_names(["Q"]))
    assert verdict(q) is Verdict.NOT_FREE
    assert render_expr(inv_of_valuation(ValueTower.from_names([]))) == "0"


@given(st.integers(1, 5))
def test_inv_of_discrete_tower_free_with_rank(n):
    t = ValueTower.from_names(["Z"] * n)
    e = inv_of_valuation(t)
    assert verdict(e) is Verdict.FREE
    assert expr_rank(e) == n
    # cross-check through the exact engine on Z^n
    from igl.abelian import FgGroup, is_free
    g = FgGroup.free(n)
    assert is_free(g) and g.invariant_factors.count(0) == expr_rank(e)
    assert g.invariant_factors == expr_invariant_factors(e)


def test_div_of_valuation_cases():
    res = div_of_valuation(ValueTower.from_names(["Z"]), maximal_principal=True)
    assert res.verdict is Verdict.FREE and render_expr(res.expr) == "Z"
    res = div_of_valuation(ValueTower.from_names(["Q", "Z"]), maximal_principal=False)
    assert res.verdict is Verdict.NOT_FREE
    assert render_expr(res.expr) == "R ⊕ Z"
    res = div_of_valuation(ValueTower.from_names([]), maximal_principal=False)
    assert res.verdict is Verdict.FREE and render_expr(res.expr) == "0"
    res = div_of_valuation(ValueTower.from_names(["Z"]), maximal_principal=True,
                           maximal_branched=False)
    assert res.verdict is Verdict.UNKNOWN and res.expr is None


def test_unbranched_valuation_rule():
    assert unbranched_valuation_verdict([Z, Z], True).verdict is Verdict.FREE
    assert unbranched_valuation_verdict([Z, Q], True).verdict is Verdict.UNKNOWN
    assert unbranched_valuation_verdict([], True).verdict is Verdict.FREE
    assert unbranched_valuation_verdict([Z], False).verdict is Verdict.UNKNOWN


def test_tower_slot_validation():
    with pytest.raises(SchemaError):
        ValueTower.from_names(["X"])


# ---------------------------------------------------------------------------
# normal sums and their text, against the references as first written
# ---------------------------------------------------------------------------

counts = st.one_of(st.integers(2, 5), st.sampled_from(["w", "w^2*3+w+1"]))


def repeat(base, times):
    """The normal form of ``times`` copies of the normal form ``base``."""
    if type(base) is Repeated and type(base.times) is int and type(times) is int:
        return Repeated(base.base, base.times * times)
    return Repeated(base, times)


# normal forms built as such: atoms, cyclic and opaque groups, towers and
# sums of normal forms, and repeats of each, with integer and ordinal counts
normal_forms = st.recursive(
    st.sampled_from([Z, Q, R, ZPROD, UNKNOWN, Cyclic(2), Cyclic(6),
                     Opaque("U(k)", is_free=True), Opaque("L*/K*", has_divisible=True)]),
    lambda sub: st.one_of(
        st.lists(sub, min_size=2, max_size=3).map(lambda xs: LexTower(tuple(xs))),
        st.lists(sub, min_size=2, max_size=3).map(reference_normal_sum),
        st.tuples(sub, counts).map(lambda t: repeat(*t))),
    max_leaves=6)


@st.composite
def summands(draw):
    """Normal forms over a pool of one to three bases, each alone or
    repeated, with trivial parts between them: adjacent summands often
    share a base."""
    pool = st.sampled_from(draw(st.lists(normal_forms, min_size=1, max_size=3)))
    part = st.one_of(st.just(TRIVIAL), pool, st.tuples(pool, counts).map(lambda t: repeat(*t)))
    return draw(st.lists(part, max_size=8))


@given(summands())
@example([LexTower((Z, Q)), Repeated(LexTower((Z, Q)), 2), TRIVIAL, LexTower((Z, Q))])
@example([Repeated(Cyclic(2), "w"), Cyclic(2), Repeated(Cyclic(2), 3), Repeated(Z, "w")])
# long runs, each one ``Repeated`` when it ends: 500 copies of Z, a run
# headed by a repeat, and runs that a symbolic count breaks
@example([Z] * 500)
@example([Repeated(Z, 3)] + [Z] * 40 + [LexTower((Z, Z))] * 3)
@example([Z] * 7 + [Repeated(Z, "w")] + [Z, Repeated(Z, 2), Z] + [Repeated(Z, "w")] * 2 + [Z])
@settings(max_examples=400, deadline=None)
def test_normal_sum_and_its_text_match_the_references(parts):
    total = normal_sum(parts)
    assert total == reference_normal_sum(parts)
    for e in parts + [total]:
        assert render_normal(e) == reference_render_normal(e)


# ---------------------------------------------------------------------------
# normal forms: one normalization per public call is enough
# ---------------------------------------------------------------------------

raw_atoms = st.one_of(
    atoms,
    st.integers(1, 12).map(Cyclic),
    st.lists(st.sampled_from([0, 1, 2, 3, 4, 6]), max_size=4)
      .map(lambda orders: fg_expr(canonical_invariants(orders))),
    st.sampled_from([Opaque("u", has_divisible=True), Opaque("v", is_free=False),
                     Opaque("x", is_torsionfree=True)]),
)

# unnormalized expressions: trivial parts, multiplicities 0 and 1, nested
# sums and towers, finitely generated atoms
raw_exprs = st.recursive(
    raw_atoms,
    lambda sub: st.one_of(
        st.lists(sub, max_size=4).map(lambda xs: DirectSum(tuple(xs))),
        st.lists(sub, min_size=1, max_size=3).map(lambda xs: LexTower(tuple(xs))),
        st.tuples(sub, st.one_of(st.integers(0, 3), st.sampled_from(["w", "w*2+1"])))
          .map(lambda t: Repeated(*t)),
    ),
    max_leaves=12)


def subterms(e):
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        if isinstance(x, DirectSum):
            stack.extend(x.parts)
        elif isinstance(x, LexTower):
            stack.extend(x.levels)
        elif isinstance(x, Repeated):
            stack.append(x.base)


@given(raw_exprs)
@settings(max_examples=400, deadline=None)
def test_every_subterm_of_a_normal_form_is_normal(e):
    n = normalize(e)
    for s in subterms(n):
        assert normalize(s) == s
    assert freeness_verdict(e) == freeness_verdict(n)
    assert has_torsion(e) == has_torsion(n)
    assert has_divisible(e) == has_divisible(n)
    assert render_expr(e) == render_expr(n)
    assert expr_invariant_factors(e) == expr_invariant_factors(n)


@given(raw_exprs)
@settings(max_examples=400, deadline=None)
def test_atom_walk_matches_the_recursive_rules(e):
    n = normalize(e)
    assert has_torsion(e) is torsion_ref(n)
    assert has_divisible(e) is divisible_ref(n)
    assert freeness_verdict(e) == freeness_verdict_ref(n)
    assert expr_invariant_factors(e) == invariant_factors_ref(n)


def test_tower_rule_matches_the_verdict():
    for n in range(6):
        for combo in product([Z, Q, R], repeat=n):
            t = ValueTower(combo)
            v = freeness_verdict(t.to_expr()).verdict
            assert v is (Verdict.FREE if t.is_free() else Verdict.NOT_FREE), combo


@given(st.lists(st.integers(0, 400), max_size=6))
@settings(max_examples=300, deadline=None)
def test_canonical_invariants_match_the_exact_engine(orders):
    from igl.abelian import FgGroup
    expected = FgGroup.from_invariants(*orders).invariant_factors if orders else ()
    assert canonical_invariants(orders) == tuple(expected)
