import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import igl.scattered
from igl import valgroup
from igl.cli import decide_payload, main, parse_scattered, verify_payload
from igl.errors import MalformedTraceError, SchemaError
from igl.scattered import (Ordinal, ScatteredSpace, cb_derivative, cb_rank, check_space,
                           escape_index, parse_ordinal, decide_scattered,
                           stratum_multiplicity, stratum_size)
from igl.valgroup import Q, R, Z, ValueTower, Verdict, inv_of_valuation, render_expr
from oracles import (dense_coefficients, derived_bound_oracle, ordinal_grid,
                     reference_scattered_expr)


def w(e=1, c=1):
    return Ordinal.omega_power(e, c)


def fin(n):
    return Ordinal.from_int(n)


def zt(*names):
    return ValueTower.from_names(list(names))


def space(bound, labels):
    return ScatteredSpace.interval(bound, labels)


# ---------------------------------------------------------------------------
# ordinals
# ---------------------------------------------------------------------------

def test_ordinal_parse_render_examples():
    for text in ("0", "1", "w", "w+1", "w*3", "w^2+w*3+1", "w^5"):
        assert parse_ordinal(text).render() == text
    with pytest.raises(SchemaError):
        parse_ordinal("1+w")  # exponents must decrease
    with pytest.raises(SchemaError):
        parse_ordinal("spam")


@pytest.mark.parametrize("text,why", [
    ("1+w", "exponents must strictly decrease"),
    ("w+w", "exponents must strictly decrease"),
    ("w*0", "bad normal-form term"),
])
def test_parse_ordinal_names_the_normal_form_fault(text, why):
    with pytest.raises(SchemaError) as err:
        parse_ordinal(text)
    assert str(err.value) == f"not a normal form: {text!r} ({why})"


def test_zero_bound_is_one_point():
    """The zero ordinal is the empty term tuple, falsy like the ``None``
    that ends the derived sequence; ``[0, 0]`` is still one point of
    rank 1."""
    payload = {"v": 1, "kind": "scattered_space", "bound": "0", "labels": {"0": ["Z"]}}
    report = decide_payload(payload, "zero")
    assert (report.verdict, report.expr, report.metadata) == (
        Verdict.DIRECT_SUM_FREE.value, "Z", {"cb_rank": "1"})
    assert verify_payload(payload, "zero") == [
        ("rank-consistent", True, "rank 1 = leading exponent + 1"),
        ("derived-sequence-monotone", True, "strata shrink along the derived sequence")]


@given(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 5)), max_size=3))
def test_ordinal_roundtrip(pairs):
    seen = set()
    terms = []
    for e, c in sorted(pairs, reverse=True):
        if e not in seen:
            seen.add(e)
            terms.append((e, c))
    o = Ordinal(tuple(terms))
    assert parse_ordinal(o.render()) == o


def test_ordinal_order():
    assert fin(3) < w()
    assert w() < w().successor()
    assert w().successor() < w(1, 2)
    assert w(1, 2) < w(2)
    assert not (w() < w())


# ordinals below w^5 with coefficients up to 3, zero coefficients dropped
small_ordinals = st.lists(st.integers(0, 3), min_size=5, max_size=5).map(
    lambda cs: Ordinal(tuple((e, c) for e, c in zip(range(4, -1, -1), cs) if c)))


@settings(max_examples=300, deadline=None)
@given(small_ordinals, small_ordinals)
def test_ordinal_order_matches_dense_coefficients(a, b):
    da, db = dense_coefficients(a, 4), dense_coefficients(b, 4)
    assert (a < b) is (da < db)
    assert (a <= b) is (da <= db)
    assert (a > b) is (da > db)
    assert (a >= b) is (da >= db)
    assert (a == b) is (da == db)


def test_successor_and_limits():
    assert fin(0).successor() == fin(1)
    assert w().successor() == Ordinal(((1, 1), (0, 1)))
    assert w().is_limit() and not w().is_successor()
    assert fin(5).is_successor()


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def test_derivative_examples():
    # finite intervals are discrete
    assert cb_derivative(fin(5)) is None
    assert cb_derivative(fin(0)) is None
    # [0, w] leaves the single point w
    assert cb_derivative(w()) == fin(0)
    # [0, w*3+2] leaves w, w*2 and w*3
    assert cb_derivative(parse_ordinal("w*3+2")) == fin(2)
    # [0, w^2] leaves the multiples of w
    assert cb_derivative(w(2)) == w()


def test_rank_examples():
    assert cb_rank(fin(7)) == fin(1)
    assert cb_rank(fin(0)) == fin(1)
    assert cb_rank(w()) == fin(2)
    assert cb_rank(w(2)) == fin(3)


def test_rank_of_omega_powers():
    for k in range(1, 6):
        for m in (1, 2, 3):
            assert cb_rank(Ordinal.omega_power(k, m)) == fin(k + 1)


def test_derivative_matches_oracle_below_w3():
    for bound in ordinal_grid(2, 3):
        assert cb_derivative(bound) == derived_bound_oracle(bound), bound


def test_strata_monotone_along_derivatives():
    # each derivative has one stratum fewer: its leading exponent drops by one
    cur = parse_ordinal("w^2+w*3+1")
    tops = []
    while cur is not None:
        tops.append(cur.leading_exponent())
        cur = cb_derivative(cur)
    assert tops == [2, 1, 0]


def test_verify_walk_is_linear_in_the_strata(monkeypatch):
    """``check_space`` takes one derivative per stratum: 1,001 for a
    leading exponent of 1,000."""
    calls = []
    derivative = igl.scattered.cb_derivative

    def counting(a):
        calls.append(a)
        return derivative(a)

    monkeypatch.setattr(igl.scattered, "cb_derivative", counting)
    s = space(parse_ordinal("w^1000*2+w^3+5"), {k: zt("Z") for k in range(1001)})
    assert all(ok for _, ok, _ in check_space(s))
    assert len(calls) == 1001


def test_stratum_multiplicity_examples():
    assert stratum_multiplicity(w(2), 0) == "w^2"
    assert stratum_multiplicity(w(2), 1) == "w"
    assert stratum_multiplicity(w(2), 2) == 1
    # the values that ``verify`` compares, and their renderings
    a = parse_ordinal("w^3*2+w+4")
    assert [stratum_size(a, k) for k in range(5)] == [
        ((3, 2), (1, 1), (0, 4)), ((2, 2), (0, 1)), ((1, 2),), 2, 0]
    assert [stratum_multiplicity(a, k) for k in range(5)] == [
        "w^3*2+w+4", "w^2*2+1", "w*2", 2, 0]
    assert stratum_size(fin(0), 0) == 1


def _oracle_strata(bound):
    """The bounds of the successive derivatives of ``[0, bound]`` up to
    the last nonempty one, iterating the derived-bound oracle."""
    seq = []
    cur = bound
    while cur is not None:
        seq.append(cur)
        cur = derived_bound_oracle(cur)
    return seq


def test_closed_form_matches_iterated_oracle():
    bounds = ordinal_grid(3, 3)
    assert fin(0) in bounds
    for bound in bounds:
        seq = _oracle_strata(bound)
        assert cb_rank(bound) == fin(len(seq))
        for k in range(bound.leading_exponent() + 3):
            if k >= len(seq):
                expected = 0
            elif seq[k].is_finite():
                expected = seq[k].as_int() + 1
            else:
                expected = seq[k].render()
            assert stratum_multiplicity(bound, k) == expected, (bound, k)


@pytest.mark.parametrize("bound", ["w^1000*2+w^3+5", "w^2000"])
def test_decide_makes_no_derivative_calls(bound, monkeypatch):
    calls = {"cb_derivative": 0, "freeness_verdict": 0}
    for module, name in ((igl.scattered, "cb_derivative"), (igl.scattered, "freeness_verdict"),
                         (valgroup, "freeness_verdict")):
        def counting(*args, _name=name, _real=getattr(module, name)):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counting)
    lead = parse_ordinal(bound).leading_exponent()
    payload = {"v": 1, "kind": "scattered_space", "bound": bound,
               "labels": {str(i): ["Z"] for i in range(lead + 1)}}
    report = decide_payload(payload, "big")
    # no derivative, and no freeness verdict: a tower's freeness is read
    # off its slots
    assert calls == {"cb_derivative": 0, "freeness_verdict": 0}
    assert report.verdict == Verdict.DIRECT_SUM_FREE.value
    assert report.metadata["cb_rank"] == str(lead + 1)
    assert report.expr.startswith(f"Z^({bound}) ⊕ Z^(")


def test_missing_label_rejected():
    with pytest.raises(SchemaError):
        space(w(), {0: zt("Z")})


# ---------------------------------------------------------------------------
# the derived-sequence decision
# ---------------------------------------------------------------------------

def test_scattered_decision_all_free():
    s = space(w(), {0: zt("Z"), 1: zt("Z")})
    res = decide_scattered(s)
    assert res.verdict is Verdict.DIRECT_SUM_FREE
    assert render_expr(res.expr) == "Z^(w) ⊕ Z"


def test_scattered_decision_obstruction():
    s = space(w(), {0: zt("Z"), 1: zt("Q")})
    res = decide_scattered(s)
    assert res.verdict is Verdict.OBSTRUCTED
    assert any(s.rule == "divisible-quotient-obstruction" for s in res.certificate)


def test_scattered_decision_finite():
    res = decide_scattered(space(fin(2), {0: zt("Q")}))
    assert res.verdict is Verdict.DIRECT_SUM
    res = decide_scattered(space(fin(2), {0: zt("Z")}))
    assert res.verdict is Verdict.DIRECT_SUM_FREE


def test_scattered_decision_unknown_cases():
    # rational isolated points next to a rational limit: not the obstruction
    s = space(w(), {0: zt("Q"), 1: zt("Q")})
    assert decide_scattered(s).verdict is Verdict.UNKNOWN
    # a real label on the limit stratum is not covered by the rational rule
    s = space(w(), {0: zt("Z"), 1: zt("R")})
    assert decide_scattered(s).verdict is Verdict.UNKNOWN


def test_scattered_decision_one_point_matches_valuation():
    for names in (["Z"], ["Q"], ["R"]):
        s = space(fin(0), {0: zt(*names)})
        res = decide_scattered(s)
        assert render_expr(res.expr) == render_expr(inv_of_valuation(zt(*names)))


# each stratum gets a tower of its own, so equal towers are never one
# object; the empty tower is the trivial group
TOWER_SLOTS = ((), (Z,), (Z, Z), (Q,), (R,), (Z, Q))

# bounds past the grid: a few terms with exponents up to 40
wide_ordinals = st.lists(st.tuples(st.integers(0, 40), st.integers(1, 5)),
                         min_size=1, max_size=3, unique_by=lambda t: t[0]).map(
    lambda ts: Ordinal(tuple(sorted(ts, reverse=True))))


@settings(max_examples=200, deadline=None)
@given(wide_ordinals)
@example(parse_ordinal("w^40*5+w^39+7"))
@example(fin(0))
def test_multiplicity_is_the_rendered_iterated_derivative(bound):
    """``stratum_multiplicity(a, k)``, read off the terms of ``a``, is what
    ``k`` steps of ``cb_derivative`` leave, as a report writes it: no
    points once nothing is left, ``n + 1`` in ``[0, n]``, and the bound's
    text for an infinite interval; for every ``k`` up to two past the
    top stratum."""
    cur = bound
    for k in range(bound.leading_exponent() + 3):
        if cur is None:
            expected = 0
        elif cur.is_finite():
            expected = cur.as_int() + 1
        else:
            expected = cur.render()
        assert stratum_multiplicity(bound, k) == expected, (bound, k)
        cur = None if cur is None else cb_derivative(cur)


@st.composite
def labelled_spaces(draw):
    """A bound from the grid (finite bounds, top strata of count 1) or
    past it, labelled by one tower throughout or stratum by stratum."""
    bound = draw(st.one_of(st.sampled_from(ordinal_grid(3, 3)), wide_ordinals))
    strata = bound.leading_exponent() + 1
    index = st.integers(0, len(TOWER_SLOTS) - 1)
    picks = draw(st.one_of(index.map(lambda i: [i] * strata),
                           st.lists(index, min_size=strata, max_size=strata)))
    return space(bound, {k: ValueTower(TOWER_SLOTS[i]) for k, i in enumerate(picks)})


@settings(max_examples=300, deadline=None)
@given(labelled_spaces())
@example(space(parse_ordinal("w^2+w"), {k: zt("Z") for k in range(3)}))
@example(space(parse_ordinal("w*3+2"), {0: zt("Z", "Q"), 1: zt("Z", "Q")}))
@example(space(fin(0), {0: zt("Q")}))
@example(space(w(), {0: ValueTower(()), 1: zt("Z")}))
def test_decide_expression_matches_the_reference(s):
    """The normal sum of the strata's parts is the expression that one
    ``Repeated`` per stratum, normalized again, gives.  In a run of one
    tower the bases are equal, but only the top stratum's count is an
    integer, so no two parts merge."""
    assert decide_scattered(s).expr == reference_scattered_expr(s)


# ---------------------------------------------------------------------------
# parsing the labels
# ---------------------------------------------------------------------------

def test_equal_labels_share_one_tower(monkeypatch):
    parsed = []
    from_names = ValueTower.from_names.__func__

    def counted(cls, names, where=""):
        parsed.append(list(names))
        return from_names(cls, names, where)
    monkeypatch.setattr(ValueTower, "from_names", classmethod(counted))
    cycle = (["Z"], ["Z", "Q"], ["Z"], ["Q"])
    payload = {"v": 1, "kind": "scattered_space", "bound": "w^200*2+w^3",
               "labels": {str(k): list(cycle[k % 4]) for k in range(201)}}
    s = parse_scattered(payload)
    assert sorted(parsed) == [["Q"], ["Z"], ["Z", "Q"]]
    assert len({id(t) for t in s.labels}) == 3
    assert s.labels == tuple(ValueTower.from_names(cycle[k % 4]) for k in range(201))


@pytest.mark.parametrize("labels,message", [
    ({"0": ["Z"], "1": ["X"], "y": ["Z"]}, "labels.1[0]: unknown tower slot 'X' (expected Z, Q or R)"),
    ({"0": ["Z"], "y": ["Z"], "1": ["X"]}, "labels: key 'y' is not a decimal stratum index"),
    ({"0": ["Z", "Q"], "1": ["Z", "W"]}, "labels.1[1]: unknown tower slot 'W' (expected Z, Q or R)"),
    ({"0": ["X"], "1": ["X"]}, "labels.0[0]: unknown tower slot 'X' (expected Z, Q or R)"),
    ({"0": ["Z"], "1": ["Z"], "01": ["X"]}, "labels: key '01' names stratum 1, already labelled"),
    ({"0": ["Z"], "1": ["Z", ["Z"]]}, "labels.1[1]: unknown tower slot ['Z'] (expected Z, Q or R)"),
    ({"0": [{"Z": 1}], "1": ["Z"]}, "labels.0[0]: unknown tower slot {'Z': 1} (expected Z, Q or R)"),
    ({"0": ["Z"], "1": []}, "labels.1: must be a nonempty list of slots"),
], ids=["bad-label-first", "bad-key-first", "after-a-parsed-tower", "repeated-bad-label",
        "duplicate-stratum", "unhashable-after-a-parsed-tower", "unhashable-first",
        "empty-after-a-parsed-tower"])
def test_first_bad_label_in_document_order_is_reported(tmp_path, capsys, labels, message):
    path = tmp_path / "space.json"
    path.write_text(json.dumps({"v": 1, "kind": "scattered_space", "bound": "w",
                                "labels": labels}), encoding="utf-8")
    for cmd in ("decide", "verify"):
        assert main([cmd, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {path}: {message}\n")


# ---------------------------------------------------------------------------
# escape stages
# ---------------------------------------------------------------------------

def test_escape_examples():
    assert escape_index([(fin(0), True), (fin(1), False)]) == fin(1)
    t = [(fin(0), True), (w(), True), (w().successor(), False)]
    assert escape_index(t) == w().successor()
    with pytest.raises(MalformedTraceError):
        escape_index([(fin(0), True), (w(), False)])


def test_escape_rejects_malformed():
    with pytest.raises(MalformedTraceError):
        escape_index([])
    with pytest.raises(MalformedTraceError):
        escape_index([(fin(0), True), (fin(3), True)])  # never fails
    with pytest.raises(MalformedTraceError):
        escape_index([(fin(0), False)])  # proper ideal survives at stage zero
    with pytest.raises(MalformedTraceError):
        escape_index([(fin(0), True), (fin(2), False), (fin(3), True)])
    with pytest.raises(MalformedTraceError):
        escape_index([(fin(0), True), (fin(0), False)])  # stages must increase


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(ordinal_grid(2, 3)), st.booleans())
def test_escape_accepts_exactly_successors(gamma, pad):
    if gamma.is_zero():
        return
    trace = [(Ordinal.zero(), True)]
    if pad and Ordinal.from_int(1) < gamma:
        trace.append((Ordinal.from_int(1), True))
    trace.append((gamma, False))
    if gamma.is_successor():
        assert escape_index(trace) == gamma
    else:
        with pytest.raises(MalformedTraceError):
            escape_index(trace)


def test_decide_renders_its_expression_once(monkeypatch):
    # the scattered-sharp-sum step and the report share one rendering
    from igl import valgroup
    rendered = []
    real = valgroup.render_normal

    def counting(e):
        text = real(e)
        rendered.append(text)
        return text

    monkeypatch.setattr(valgroup, "render_normal", counting)
    monkeypatch.setattr(igl.scattered, "render_normal", counting)
    payload = {"v": 1, "kind": "scattered_space", "bound": "w^3*2+w+4",
               "labels": {"0": ["Z"], "1": ["Z", "Z"], "2": ["Q"], "3": ["Z"]}}
    report = decide_payload(payload, "x")
    step = report.certificate[0]
    assert step.rule == "scattered-sharp-sum" and ("expr", report.expr) in step.inputs
    assert rendered.count(report.expr) == 1
