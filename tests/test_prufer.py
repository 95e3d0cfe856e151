import json
import random
import sys
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from igl import prufer, valgroup
from igl.cli import main
from igl.errors import SchemaError
from igl.prufer import (PrimeNode, branching_points, decide_div_free,
                        decide_inv_free, gamma_at, contracted_spectrum,
                        strongly_discrete_decide, tree_from_payload)
from igl.valgroup import (GroupExpr, ValueTower, Verdict, div_of_valuation,
                          expr_invariant_factors, freeness_verdict,
                          render_expr)
from oracles import (all_parent_vectors, caterpillar_payload, expr_rank, permuted_tree,
                     random_tree, reference_decide_inv_free, slot_names, standard_decomposition,
                     tree_from_parents, tree_payload, tree_rank_oracle, walked_tree)


def zt(*names):
    return ValueTower.from_names(list(names))


def chain(*labels):
    node = None
    for i, lab in enumerate(reversed(labels)):
        node = PrimeNode(f"c{len(labels) - i}", zt(*lab), (node,) if node else ())
    return walked_tree(PrimeNode("0", None, (node,)))


def y_tree(trunk=("Z",), left=("Z",), right=("Z",)):
    return walked_tree(PrimeNode("0", None, (
        PrimeNode("P", zt(*trunk), (
            PrimeNode("M1", zt(*left)),
            PrimeNode("M2", zt(*right)))),)))


def test_gamma_at():
    t = chain(("Z",), ("Z",))
    leaf = t.node("c2")
    assert slot_names(gamma_at(t, leaf)) == ["Z", "Z"]
    assert slot_names(gamma_at(t, t.root)) == []
    y = y_tree(trunk=("Q",))
    assert slot_names(gamma_at(y, y.node("M1"))) == ["Z", "Q"]


def test_branching_points():
    y = y_tree()
    assert [n.node_id for n in branching_points(y)] == ["P"]
    c = chain(("Z",), ("Z",), ("Z",))
    assert branching_points(c) == []
    two_leaves = walked_tree(PrimeNode("0", None, (
        PrimeNode("M1", zt("Z")), PrimeNode("M2", zt("Z")))))
    assert [n.node_id for n in branching_points(two_leaves)] == ["0"]


def test_contracted_spectrum_contracts_chains():
    c = chain(("Z",), ("Z",), ("Z",))
    hi = contracted_spectrum(c)
    assert len(hi.nodes()) == 2
    leaf = hi.leaves()[0]
    assert slot_names(leaf.label) == ["Z", "Z", "Z"]
    # already irreducible trees are unchanged
    y = y_tree()
    assert len(contracted_spectrum(y).nodes()) == len(y.nodes())


def test_contracted_spectrum_no_internal_degree_two():
    rng = random.Random(3)
    for _ in range(50):
        t = random_tree(rng)
        hi = contracted_spectrum(t)
        for n in hi.nodes():
            if n is not hi.root and n.children:
                assert len(n.children) >= 2


def test_contracted_spectrum_preserves_gamma_at_kept_nodes():
    rng = random.Random(5)
    for _ in range(30):
        t = random_tree(rng)
        hi = contracted_spectrum(t)
        for n in hi.nodes():
            if n is hi.root:
                continue
            assert slot_names(gamma_at(hi, n)) == \
                slot_names(gamma_at(t, t.node(n.node_id)))


def test_standard_decomposition():
    two_chains = walked_tree(PrimeNode("0", None, (
        PrimeNode("A", zt("Z"), (PrimeNode("A2", zt("Z")),)),
        PrimeNode("B", zt("Z")))))
    classes = standard_decomposition(two_chains)
    assert len(classes) == 2
    assert len(standard_decomposition(y_tree())) == 1
    wide = walked_tree(PrimeNode("0", None, tuple(
        PrimeNode(f"M{i}", zt("Z")) for i in range(4))))
    classes = standard_decomposition(wide)
    assert len(classes) == 4
    assert sum(len(c.leaves()) for c in classes) == len(wide.leaves())


def test_decide_inv_examples():
    res = decide_inv_free(y_tree())
    assert res.verdict is Verdict.FREE
    assert render_expr(res.expr) == "Z^3"
    assert len(res.cuts) == 1 and res.cuts[0].prime_id == "P"

    res = decide_inv_free(chain(("Z",)))
    assert res.verdict is Verdict.FREE and render_expr(res.expr) == "Z"

    res = decide_inv_free(y_tree(trunk=("Q",)))
    assert res.verdict is Verdict.UNKNOWN

    # a rational leaf fails the leaf condition but not the hypothesis gate
    res = decide_inv_free(y_tree(left=("Q",)))
    assert res.verdict is Verdict.NOT_FREE

    field = walked_tree(PrimeNode("0", None, ()))
    res = decide_inv_free(field)
    assert res.verdict is Verdict.FREE and render_expr(res.expr) == "0"


def test_decide_inv_certificates():
    res = decide_inv_free(y_tree())
    rules = [s.rule for s in res.certificate]
    assert "divided-cut" in rules
    assert "all-leaf-gammas-free" in rules


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_decide_inv_order_invariant(seed):
    rng = random.Random(seed)
    t = random_tree(rng, q_prob=0.15)
    res = decide_inv_free(t)
    for _ in range(3):
        p = permuted_tree(rng, t)
        res2 = decide_inv_free(p)
        assert res2.verdict is res.verdict
        assert expr_invariant_factors(res2.expr) == expr_invariant_factors(res.expr)


def test_exhaustive_small_trees_rank():
    for n in range(1, 7):
        for parents in all_parent_vectors(n):
            t = tree_from_parents(parents)
            res = decide_inv_free(t)
            assert res.verdict is Verdict.FREE
            rank = expr_rank(res.expr)
            assert rank == tree_rank_oracle(t) == n - 1
            assert rank == tree_rank_oracle(contracted_spectrum(t))


def test_decide_div_cases():
    assert decide_div_free(y_tree()).verdict is Verdict.FREE
    res = decide_div_free(chain(("Z",), ("Q",)))
    assert res.verdict is Verdict.NOT_FREE
    assert res.metadata["witness_leaf"] == "c2"
    # a maximal ideal is finitely generated exactly when the top slot of
    # its own edge label is discrete; the slots below it do not count
    assert decide_div_free(y_tree(left=("Z", "Q"))).verdict is Verdict.FREE
    res = decide_div_free(y_tree(right=("Q", "Z")))
    assert res.verdict is Verdict.NOT_FREE
    assert res.metadata["witness_leaf"] == "M2"
    field = walked_tree(PrimeNode("0", None, ()))
    assert decide_div_free(field).verdict is Verdict.FREE
    unbranched_leaf = walked_tree(PrimeNode("0", None, (
        PrimeNode("M", zt("Z"), (), branched=False),)))
    assert decide_div_free(unbranched_leaf).verdict is Verdict.UNKNOWN


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from(["Z", "Q", "R"]))
def test_div_matches_valuation_rule_on_chains(length, top):
    labels = [("Z",)] * (length - 1) + [(top,)]
    t = chain(*labels)
    leaf = t.leaves()[0]
    tower = gamma_at(t, leaf)
    tree_res = decide_div_free(t)
    val_res = div_of_valuation(tower, maximal_principal=(top == "Z"))
    assert tree_res.verdict is val_res.verdict


def test_strongly_discrete():
    t = chain(("Z",), ("Z",))
    for codim_finite, locally_finite, verdict in [
            (True, True, Verdict.FREE), (False, True, Verdict.FREE),
            (True, False, Verdict.FREE), (False, False, Verdict.UNKNOWN)]:
        assert strongly_discrete_decide(t, codim_finite, locally_finite).verdict is verdict
    for labels in [(("Q",),), (("Z",), ("Z", "R"))]:
        assert strongly_discrete_decide(chain(*labels), True, True).verdict is Verdict.UNKNOWN


def test_agreement_with_leaf_gammas():
    rng = random.Random(17)
    for _ in range(40):
        t = random_tree(rng, q_prob=0.1)
        res = decide_inv_free(t)
        leaf_free = [freeness_verdict(gamma_at(t, leaf).to_expr()).verdict
                     for leaf in t.leaves()]
        if res.verdict is Verdict.FREE:
            assert all(v is Verdict.FREE for v in leaf_free)
        if res.verdict is Verdict.NOT_FREE:
            assert any(v is Verdict.NOT_FREE for v in leaf_free)


def test_finitely_generated_maximal_flag():
    from igl.prufer import finitely_generated_maximal
    t = chain(("Z",), ("Q",))
    assert not finitely_generated_maximal(t.node("c2"))
    y = y_tree()
    assert finitely_generated_maximal(y.node("M1"))


# a faulty record for each parse message, from a tag that tells two faults
# of one kind apart, with the message of tag 1 for the record at path ``at``
PARSE_FAULTS = [
    (lambda tag: tag * 5, "{at}: must be an object"),
    (lambda tag: {"label": ["Z"] * tag}, "{at}.id: missing"),
    (lambda tag: {"id": f"d{tag}", "label": ["Z"], "children": [{"id": f"d{tag}", "label": ["Z"]}]},
     "{at}.children[0].id: duplicate node id 'd1'"),
    (lambda tag: {"id": tag - 1, "label": ["Z"], "children": [{"id": str(tag - 1), "label": ["Z"]}]},
     "{at}.children[0].id: duplicate node id '0'"),
    (lambda tag: {"id": f"e{tag}", "label": []}, "{at}.label: must be a nonempty list of slots"),
    (lambda tag: {"id": f"s{tag}", "label": "Z"}, "{at}.label: must be a nonempty list of slots"),
    (lambda tag: {"id": f"m{tag}"}, "{at}.label: missing"),
    (lambda tag: {"id": f"x{tag}", "label": ["Z", f"X{tag}"]},
     "{at}.label[1]: unknown tower slot 'X1' (expected Z, Q or R)"),
    (lambda tag: {"id": f"h{tag}", "label": ["Z", [f"H{tag}"]]},
     "{at}.label[1]: unknown tower slot ['H1'] (expected Z, Q or R)"),
    (lambda tag: {"id": f"c{tag}", "label": ["Z"], "children": {"id": tag}},
     "{at}.children: must be a list of records"),
    (lambda tag: {"id": f"b{tag}", "label": ["Z"], "branched": "yes" * tag},
     "{at}.branched: must be true or false"),
    (lambda tag: {"id": f"k{tag}", "label": ["Z"], "branch": tag}, "{at}.branch: unknown key"),
    (lambda tag: {"id": f"q{tag}", "label": ["Z"], "a b": tag}, "{at}: unknown key 'a b'"),
]


def test_tree_payload_parsing():
    t = tree_from_payload({"id": "0", "children": [
        {"id": "P", "label": ["Z"], "children": [
            {"id": "M", "label": ["Z", "Q"]}]}]})
    assert slot_names(gamma_at(t, t.node("M"))) == ["Z", "Q", "Z"]
    with pytest.raises(SchemaError):
        tree_from_payload({"id": "0", "children": [{"id": "P", "label": []}]})
    with pytest.raises(SchemaError, match=r"^root\.children: must be a list of records$"):
        tree_from_payload({"id": "0", "children": 5})
    with pytest.raises(SchemaError, match=r"^root\.label: the root \(zero ideal\) carries no edge"):
        tree_from_payload({"id": "0", "label": ["Q"], "children": [{"id": "M", "label": ["Z"]}]})
    # records are checked in document order: the first bad one is reported
    with pytest.raises(SchemaError, match="'X'"):
        tree_from_payload({"id": "0", "children": [
            {"id": "A", "label": ["X"], "children": [{"id": "A1"}]},
            {"id": "B"}]})
    # every parse message, with a second fault in another subtree: the one
    # first in document order is reported, although the other is shallower
    for (first, want), (second, _) in product(PARSE_FAULTS, repeat=2):
        deep = {"id": "a2", "label": ["Z"], "children": [first(1)]}
        root = {"id": "r", "children": [
            {"id": "a1", "label": ["Z"], "children": [deep]},
            {"id": "b1", "label": ["Z"], "children": [second(2)]}]}
        with pytest.raises(SchemaError) as exc:
            tree_from_payload(root)
        assert str(exc.value) == want.format(at="root.children[0].children[0].children[0]"), \
            (first(1), second(2))
        root["label"] = ["Z"]
        with pytest.raises(SchemaError, match=r"^root\.label: the root \(zero ideal\) carries"):
            tree_from_payload(root)


@pytest.mark.parametrize("children, at, dup", [
    # the first repeat in document order is named, not the first id repeated
    ([{"id": "A", "label": ["Z"], "children": [{"id": "B", "label": ["Z"]}]},
      {"id": "B", "label": ["Z"]}, {"id": "A", "label": ["Z"]}], "root.children[1]", "B"),
    # ids compare as the strings the nodes keep
    ([{"id": 0, "label": ["Z"]}], "root.children[0]", "0"),
    ([{"id": "1", "label": ["Z"]}, {"id": 1, "label": ["Z"]}], "root.children[1]", "1"),
    # a repeat is reported before a malformed record that comes later
    ([{"id": "A", "label": ["Z"]}, {"id": "A", "label": ["Z"]},
      {"id": "C", "label": []}, {"id": "D", "label": ["X"]}], "root.children[1]", "A"),
])
def test_duplicate_ids_are_refused_at_parse(children, at, dup):
    with pytest.raises(SchemaError) as exc:
        tree_from_payload({"id": "0", "children": children})
    assert str(exc.value) == f"{at}.id: duplicate node id {dup!r}"


def test_a_record_met_twice_is_named_where_it_fails():
    """The second walk counts records in pre-order, so a record object that
    the tree holds twice is named at its second place, where it fails."""
    leaf = {"id": "M", "label": ["Z"]}
    with pytest.raises(SchemaError) as exc:
        tree_from_payload({"id": "0", "children": [{"id": "P", "label": ["Z"],
                                                    "children": [leaf]}, leaf]})
    assert str(exc.value) == "root.children[1].id: duplicate node id 'M'"


# each bad label with the message the parse gives it under its node's path,
# whether or not an earlier node has already put a tower in the parse's
# label table
BAD_LABELS = [
    ([[]], "label[0]: unknown tower slot [] (expected Z, Q or R)"),
    ([{}], "label[0]: unknown tower slot {} (expected Z, Q or R)"),
    ([1], "label[0]: unknown tower slot 1 (expected Z, Q or R)"),
    ([True], "label[0]: unknown tower slot True (expected Z, Q or R)"),
    ([None], "label[0]: unknown tower slot None (expected Z, Q or R)"),
    (["z"], "label[0]: unknown tower slot 'z' (expected Z, Q or R)"),
    (["Z", []], "label[1]: unknown tower slot [] (expected Z, Q or R)"),
    ([["Z"]], "label[0]: unknown tower slot ['Z'] (expected Z, Q or R)"),
    ("Z", "label: must be a nonempty list of slots"),
    ([], "label: must be a nonempty list of slots"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["first", "after-Z"])
@pytest.mark.parametrize("label, message", BAD_LABELS)
def test_bad_labels_keep_their_diagnostics(tmp_path, capsys, label, message, warm):
    bad = {"id": "B", "label": label}
    children = [{"id": "A", "label": ["Z"]}, bad] if warm else [bad]
    root = {"id": "0", "children": children}
    message = f"root.children[{int(warm)}].{message}"
    with pytest.raises(SchemaError) as exc:
        tree_from_payload(root)
    assert str(exc.value) == message
    path = tmp_path / "tree.json"
    path.write_text(json.dumps({"v": 1, "kind": "prufer_tree", "root": root}), encoding="utf-8")
    for cmd in ("decide", "verify"):
        assert main([cmd, str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"


def test_equal_labels_share_one_tower(monkeypatch):
    parsed = []
    from_names = ValueTower.from_names.__func__

    def counted(cls, names, where=""):
        parsed.append(list(names))
        return from_names(cls, names, where)
    monkeypatch.setattr(ValueTower, "from_names", classmethod(counted))
    tree = tree_from_payload(caterpillar_payload(480, ("Z", "Q"))["root"])
    towers = {}
    for n in tree.nodes()[1:]:
        towers.setdefault(n.label, set()).add(id(n.label))
    assert sorted(parsed) == [["Z"], ["Z", "Q"]]
    assert {slots: len(ids) for slots, ids in towers.items()} == {
        (valgroup.Z,): 1, (valgroup.Z, valgroup.Q): 1}


def test_all_z_towers_are_free_by_identity(monkeypatch):
    calls = []
    eq = GroupExpr.__eq__

    def counted(self, other):
        calls.append((self, other))
        return eq(self, other)
    tree = tree_from_payload(caterpillar_payload(480)["root"])
    monkeypatch.setattr(GroupExpr, "__eq__", counted)
    free = prufer._free_at(tree)
    assert all(free.values()) and len(free) == len(tree.nodes())
    assert calls == []


def _three_label_payload(name):
    """A 300-node random tree or a spine-150 caterpillar with three
    distinct labels: ``Z`` and ``Z,Z`` everywhere, and ``Z,Q``, which is
    not free, on every other leaf, so every internal value group is free."""
    rng = random.Random(27)
    payload = (tree_payload([rng.randrange(i) for i in range(1, 300)]) if name == "random"
               else caterpillar_payload(150))
    records = list(payload["root"]["children"])
    for i, rec in enumerate(records):
        leaf = not rec.get("children")
        rec["label"] = ["Z", "Q"] if leaf and i % 2 else ["Z"] * (1 + i % 2)
        records.extend(rec.get("children", []))
    return payload


@pytest.mark.parametrize("name", ["random", "caterpillar"])
def test_freeness_is_asked_at_most_once_per_edge(tmp_path, capsys, monkeypatch, name):
    """Freeness is read off each edge's own tower in one pass, never off a
    root path per prime (the inv and div rules, and every ``verify``, whose
    ``check_tree`` runs the inv rule); the strongly discrete rule asks it
    once per distinct label, of which the payload has three."""
    payload = _three_label_payload(name)
    todo, edges = list(payload["root"]["children"]), 0
    while todo:
        edges += 1
        todo += todo.pop().get("children", [])
    calls = []
    is_free = ValueTower.is_free

    def counted(self):
        calls.append(self)
        return is_free(self)
    monkeypatch.setattr(ValueTower, "is_free", counted)
    for question in ("inv", "div", "strongly_discrete"):
        path = tmp_path / f"{question}.json"
        path.write_text(json.dumps({**payload, "question": question}), encoding="utf-8")
        for argv in (["decide", str(path)], ["verify", str(path)]):
            calls.clear()
            assert main(argv) == 0
            bound = 3 if argv[0] == "decide" and question == "strongly_discrete" else edges
            assert 0 < len(calls) <= bound, (argv, len(calls))
    capsys.readouterr()


# ---------------------------------------------------------------------------
# deep trees: every walk is a loop
# ---------------------------------------------------------------------------

def caterpillar(spine, first="Z", last="Z"):
    """Spine nodes s1..s<spine>, each but the last with one leaf; built
    bottom-up, so building it needs no recursion either.  The edge above
    s1 is labelled ``first``, the one above the end leaf s<spine> ``last``,
    every other edge Z."""
    z = zt("Z")
    node = PrimeNode(f"s{spine}", zt(last))
    for i in range(spine - 1, 0, -1):
        node = PrimeNode(f"s{i}", zt(first) if i == 1 else z, (PrimeNode(f"l{i}", z), node))
    return walked_tree(PrimeNode("0", None, (node,)))


def shape(tree):
    return [(n.node_id, slot_names(n.label) if n.label else None, len(n.children))
            for n in tree.nodes()]


def test_deep_caterpillar_decides_under_the_default_recursion_limit():
    spine = 700
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # the interpreter's default
    try:
        t = caterpillar(spine)
        inv = decide_inv_free(t)
        div = decide_div_free(t)
        rank = expr_rank(inv.expr)
        hi = contracted_spectrum(t)
        payload = {"id": "0", "children": []}
        level = payload["children"]
        for i in range(1, spine):
            rec = {"id": f"s{i}", "label": ["Z"], "children": [{"id": f"l{i}", "label": ["Z"]}]}
            level.append(rec)
            level = rec["children"]
        level.append({"id": f"s{spine}", "label": ["Z"]})
        parsed = tree_from_payload(payload)
    finally:
        sys.setrecursionlimit(old)
    assert inv.verdict is Verdict.FREE and div.verdict is Verdict.FREE
    assert rank == sum(len(n.label) for n in t.nodes()[1:]) == 2 * spine - 1
    assert len(inv.cuts) == spine - 1
    assert [c.prime_id for c in inv.cuts] == [f"s{i}" for i in range(1, spine)]
    assert shape(hi) == shape(t)
    assert shape(parsed) == shape(t)


def test_built_index_matches_the_walked_index():
    """The pre-order tuple and the parent map that ``tree_from_payload``
    and ``contracted_spectrum`` fill while building are the ones a walk
    of the built root gives: every tree of up to 7 nodes, 150 seeded
    random trees and a spine-480 caterpillar."""
    def same_index(tree):
        ref = walked_tree(tree.root)
        assert [id(n) for n in tree.nodes()] == [id(n) for n in ref.nodes()]
        assert {k: id(v) for k, v in tree.parents.items()} == \
            {k: id(v) for k, v in ref.parents.items()}

    payloads = [tree_payload(parents)["root"]
                for n in range(1, 8) for parents in all_parent_vectors(n)]
    rng = random.Random(32)
    labels = (["Z"], ["Z", "Z"], ["Q"], ["R", "Z"])
    for _ in range(150):
        payload = tree_payload([rng.randrange(i) for i in range(1, rng.randint(2, 60))])
        records = list(payload["root"].get("children", []))
        for rec in records:
            rec["label"] = rng.choice(labels)
            records.extend(rec.get("children", []))
        payloads.append(payload["root"])
    payloads.append(caterpillar_payload(480)["root"])
    for payload in payloads:
        tree = tree_from_payload(payload)
        same_index(tree)
        same_index(contracted_spectrum(tree))


def test_index_lookups():
    t = caterpillar(5)
    assert [n.node_id for n in t.nodes()][:4] == ["0", "s1", "l1", "s2"]
    assert t.node("s3") is t.nodes()[5]
    assert t.parents["l2"] is t.node("s2")
    with pytest.raises(KeyError):
        t.node("nope")


# ---------------------------------------------------------------------------
# one pre-order verdict pass
# ---------------------------------------------------------------------------

def test_pass_matches_the_verdict_of_every_value_group():
    rng = random.Random(29)
    for _ in range(200):
        t = random_tree(rng, q_prob=0.3)
        free = prufer._free_at(t)
        for n in t.nodes():
            v = freeness_verdict(gamma_at(t, n).to_expr()).verdict
            assert v is (Verdict.FREE if free[n.node_id] else Verdict.NOT_FREE)


def test_internal_gate_verdict_is_the_failing_towers_verdict():
    """The gate writes ``NotFree`` for the branching point whose value
    group is not free, without building its tower: it is the verdict
    that the tower itself gets, on random trees of ``Z``, ``Q`` and ``R``
    labels with a ``Q`` or ``R`` slot at some branching point."""
    rng = random.Random(31)
    labels = (["Z"], ["Z"], ["Z"], ["Q"], ["R"], ["Z", "Q"], ["R", "Z"], ["Z", "Z"])
    gated = 0
    while gated < 100:
        n = rng.randint(3, 16)
        payload = tree_payload([rng.randrange(i) for i in range(1, n)])
        records = [payload["root"]]
        for rec in records:
            kids = rec.get("children", [])
            records.extend(kids)
            if rec is not payload["root"]:
                rec["label"] = rng.choice(labels)
                if len(kids) >= 2 and rng.random() < 0.5:
                    rec["label"] = rng.choice([["Q"], ["R"], ["Z", "R"]])
        t = tree_from_payload(payload["root"])
        for decision in (decide_inv_free(t), decide_div_free(t)):
            steps = [s for s in decision.certificate if s.rule == "internal-gamma-not-free"]
            if not steps:
                continue
            (step,) = steps
            inputs = dict(step.inputs)
            node = t.node(inputs["prime"])
            assert node in branching_points(t) and node is not t.root
            want = freeness_verdict(gamma_at(t, node).to_expr()).verdict.value
            assert inputs["verdict"] == want == "NotFree"
            gated += 1


@pytest.mark.parametrize("first, last, verdict", [
    ("Z", "Z", Verdict.FREE), ("Q", "Z", Verdict.UNKNOWN), ("Z", "Q", Verdict.NOT_FREE)])
def test_caterpillar_walks_at_most_two_root_paths(monkeypatch, first, last, verdict):
    calls = {"freeness_verdict": 0, "gamma_at": 0}

    def counted(name):
        inner = getattr(prufer, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)
        return wrapper
    for name in calls:
        monkeypatch.setattr(prufer, name, counted(name))
    res = decide_inv_free(caterpillar(1500, first, last))
    assert res.verdict is verdict
    assert calls["freeness_verdict"] <= 2 and calls["gamma_at"] <= 2


def test_all_z_caterpillar_decides_without_normalizing(monkeypatch):
    # every class tower is a normal form as built, so no binding of
    # normalize in any igl module is called
    normalize = valgroup.normalize
    calls = []

    def counted(e):
        calls.append(e)
        return normalize(e)
    bindings = [(module, attr) for name, module in list(sys.modules.items())
                if name == "igl" or name.startswith("igl.")
                for attr, value in vars(module).items() if value is normalize]
    assert (valgroup, "normalize") in bindings
    for module, attr in bindings:
        monkeypatch.setattr(module, attr, counted)
    res = decide_inv_free(caterpillar(40))
    assert res.verdict is Verdict.FREE and len(res.cuts) == 39
    assert calls == []


# ---------------------------------------------------------------------------
# the one walk against the walk as first written
# ---------------------------------------------------------------------------

NOT_FREE_LABELS = (["Q"], ["R"], ["Z", "Q"], ["R", "Z"])


def as_records(tree):
    """The root record of a payload of ``tree``, its labels spelt as slot names."""
    recs = {}
    for n in tree.nodes():
        rec = recs[n.node_id] = {"id": n.node_id}
        if n.label is not None:
            rec["label"] = slot_names(n.label)
        parent = tree.parents[n.node_id]
        if parent is not None:
            recs[parent.node_id].setdefault("children", []).append(rec)
    return recs[tree.root.node_id]


def spined_records(rng, spine, gap, reach, width):
    """The root record of a caterpillar of ``spine`` branching primes, each
    with a leaf and the last with ``width`` (a broom when ``spine`` is 1),
    every branching prime ``gap`` unbranched primes below the one before,
    and every leaf ``reach`` primes below its branching prime.  Edges are
    ``Z`` or ``Z, Z``."""
    root = {"id": "0"}
    count = [0]

    def hang(parent, length):
        for _ in range(length):
            count[0] += 1
            rec = {"id": f"p{count[0]}", "label": rng.choice((["Z"], ["Z"], ["Z", "Z"]))}
            parent.setdefault("children", []).append(rec)
            parent = rec
        return parent

    top = root
    for i in range(spine):
        top = hang(top, gap + 1)
        for _ in range(width if i == spine - 1 else 1):
            hang(top, reach)
    return root


@st.composite
def inv_trees(draw):
    """Trees from ``random_tree`` (some with ``Q`` edges), or caterpillars
    and brooms with long unbranched spines; then, maybe, a ``Q`` or ``R``
    slot on the last branching prime (the gate fails late), on a leaf or
    on any prime."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        root = as_records(random_tree(rng, max_depth=5, max_nodes=24,
                                      q_prob=draw(st.sampled_from([0.0, 0.05, 0.2])),
                                      multi_slot_prob=0.3))
    else:
        root = spined_records(rng, draw(st.integers(1, 12)), draw(st.integers(0, 6)),
                              draw(st.integers(1, 3)), draw(st.integers(2, 5)))
    order, stack = [], [root]
    while stack:
        rec = stack.pop()
        order.append(rec)
        stack.extend(reversed(rec.get("children", [])))
    where = draw(st.sampled_from([None, "last branching", "leaf", "any"]))
    spots = {"last branching": [r for r in order[1:] if len(r.get("children", [])) >= 2][-1:],
             "leaf": [r for r in order[1:] if not r.get("children")],
             "any": order[1:]}.get(where)
    if spots:
        draw(st.sampled_from(spots))["label"] = draw(st.sampled_from(NOT_FREE_LABELS))
    return tree_from_payload(root)


@given(inv_trees())
@example(caterpillar(40))
@example(caterpillar(40, "Q"))
@example(caterpillar(40, "Z", "R"))
@example(walked_tree(PrimeNode("0", None)))
@settings(max_examples=300, deadline=None)
def test_one_walk_matches_the_walk_as_first_written(tree):
    """The verdict, every certificate step with its inputs, the expression
    and the cuts of ``decide_inv_free`` are those of the walk as first
    written, types included."""
    got, want = decide_inv_free(tree), reference_decide_inv_free(tree)
    assert got.verdict is want.verdict
    assert [(type(s), tuple(s)) for s in got.certificate] == \
        [(type(s), tuple(s)) for s in want.certificate]
    assert type(got.expr) is type(want.expr) and got.expr == want.expr
    assert repr(got.expr) == repr(want.expr)
    assert [(type(c), tuple(c)) for c in got.cuts] == [(type(c), tuple(c)) for c in want.cuts]
    assert got == want
