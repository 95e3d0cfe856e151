"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance (sizes, counts, time budgets) is pinned here.
"""

import json
import random
import time

from igl import abelian
from igl.cli import canonical_json, main
from igl.errors import MalformedTraceError
from igl.matrices import IntMatrix, snf
from igl.prufer import PrimeNode, contracted_spectrum, decide_inv_free
from igl.scattered import Ordinal, cb_derivative, cb_rank, escape_index
from igl.valgroup import ValueTower, Verdict, expr_invariant_factors
from oracles import (all_parent_vectors, derived_bound_oracle, diagonal, expr_rank,
                     minors_invariant_factors, of_direct_sum, ordinal_grid, permuted_tree,
                     random_amalgam_instance, random_snake_input, random_tree,
                     tree_from_parents, tree_rank_oracle, walked_tree)


def test_acceptance_1_snf_suite():
    """1,000 random matrices up to 6x6, entries in [-20, 20]: exact
    factorization, unimodular transforms, divisibility chain, and the
    gcd-of-minors oracle, all inside 10 seconds."""
    rng = random.Random(20260808)
    started = time.perf_counter()
    for _ in range(1000):
        r = rng.randint(1, 6)
        c = rng.randint(1, 6)
        m = IntMatrix.from_rows(
            [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)], cols=c)
        u, s, v = snf(m)
        assert (u @ m @ v).entries == s.entries
        assert abs(u.det()) == 1
        assert abs(v.det()) == 1
        diag = diagonal(s)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b % a == 0 if a else b == 0
        assert all(s.entries[i][j] == 0
                   for i in range(r) for j in range(c) if i != j)
        assert diag == minors_invariant_factors(m)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"SNF suite took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 1 SNF suite: PASS (1000 matrices in {elapsed:.2f}s)")


def test_acceptance_2_snake_suite():
    """200 randomized commuting exact ladders: the six-term sequence is
    exact at every position, zero failures."""
    rng = random.Random(31337)
    failures = 0
    for _ in range(200):
        top, bottom, f, g, h = random_snake_input(rng)
        res = abelian.snake(top, bottom, f, g, h)
        failures += res.verify_exact() is not None
    assert failures == 0
    print("\nACCEPTANCE 2 snake suite: PASS (200 ladders, all exact)")


def test_acceptance_3_amalgam_suite():
    """100 random certified amalgam instances (n <= 4, ranks <= 3, torsion
    orders <= 6): the explicit map is surjective with the diagonal as
    kernel and the quotient has the predicted invariant factors."""
    rng = random.Random(424242)
    for i in range(100):
        n = rng.randint(1, 4)
        g, parts, expected = random_amalgam_instance(rng, n)
        res = abelian.amalgam_quotient(g, parts)  # verifies kernel + surjectivity
        assert res.quotient.invariant_factors == expected.invariant_factors
    print("\nACCEPTANCE 3 amalgam suite: PASS (100 instances)")


def test_acceptance_4_noetherian_corpus():
    """Worked conductor-data instances plus the finite-field exhaustion
    p^r <= 64, all inside one second."""
    from igl.noeth import (Branch, FiniteField, NoethInstance, OpaqueField,
                           decide_noeth)

    def inst(k, branches):
        return NoethInstance(k, tuple(Branch(f, e) for f, e in branches))

    started = time.perf_counter()
    K = OpaqueField("K", characteristic=0)
    assert decide_noeth(inst(K, [(K, 2)])).verdict is Verdict.NOT_FREE
    QQ = OpaqueField("Q", characteristic=0)
    L = OpaqueField("Q(z7+1/z7)", characteristic=0, quotient_free=True)
    assert decide_noeth(inst(QQ, [(L, 1)])).verdict is Verdict.FREE
    k2 = OpaqueField("F2(X^2)", characteristic=2)
    l2 = OpaqueField("F2(X)", characteristic=2, quotient_free=False)
    assert decide_noeth(inst(k2, [(l2, 1)])).verdict is Verdict.NOT_FREE
    for p in (3, 5, 7):
        res = decide_noeth(inst(FiniteField(p), [(FiniteField(p), 1),
                                                 (FiniteField(p), 1)]))
        assert res.verdict is Verdict.NOT_FREE

    pps = []
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61):
        q, r = p, 1
        while q <= 64:
            pps.append((p, r, q))
            q, r = q * p, r + 1
    checked = 0
    for (p, s, ps) in pps:
        subs = [(r, q) for (p2, r, q) in pps if p2 == p and r % s == 0]
        for (r1, q1) in subs:
            for (r2, q2) in subs:
                res = decide_noeth(inst(FiniteField(p, s),
                                        [(FiniteField(p, r1), 1),
                                         (FiniteField(p, r2), 1)]))
                expect = (ps == 2 and q1 == 2 and q2 == 2)
                assert (res.verdict is Verdict.FREE) == expect
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"noetherian corpus took {elapsed:.2f}s"
    print(f"\nACCEPTANCE 4 noetherian corpus: PASS "
          f"({checked} case-(c) combinations in {elapsed:.3f}s)")


def test_acceptance_5_prufer_recursion():
    """Verdicts and expression invariants are traversal-order invariant on
    100 random trees; exhaustive all-Z trees with <= 6 nodes have rank
    equal to the contraction's slot-weighted edge count via an
    independent recursion; divisorial chain decisions match the
    valuation-ring rule."""
    rng = random.Random(5150)
    for _ in range(100):
        t = random_tree(rng, max_depth=4, max_nodes=12, q_prob=0.12)
        base = decide_inv_free(t)
        p = permuted_tree(rng, t)
        other = decide_inv_free(p)
        assert other.verdict is base.verdict
        assert expr_invariant_factors(other.expr) == expr_invariant_factors(base.expr)

    total = 0
    for n in range(1, 7):
        for parents in all_parent_vectors(n):
            t = tree_from_parents(parents)
            res = decide_inv_free(t)
            assert res.verdict is Verdict.FREE
            rank = expr_rank(res.expr)
            assert rank == tree_rank_oracle(t) == tree_rank_oracle(contracted_spectrum(t)) \
                == n - 1
            total += 1

    from igl.prufer import decide_div_free, gamma_at
    from igl.valgroup import div_of_valuation
    for length in (1, 2, 3, 4):
        for top in ("Z", "Q", "R"):
            labels = ["Z"] * (length - 1) + [top]
            node = None
            for i, name in enumerate(reversed(labels)):
                node = PrimeNode(f"c{length - i}", ValueTower.from_names([name]),
                                 (node,) if node else ())
            t = walked_tree(PrimeNode("0", None, (node,)))
            tower = gamma_at(t, t.leaves()[0])
            assert decide_div_free(t).verdict is \
                div_of_valuation(tower, maximal_principal=(top == "Z")).verdict
    print(f"\nACCEPTANCE 5 prufer recursion: PASS "
          f"(100 permuted trees, {total} exhaustive trees, 12 chain cases)")


def test_acceptance_6_divided_cut_sequences():
    """Every split sequence emitted by the tree recursion, instantiated
    with free stand-ins of the cut's ranks, is exact and splits, and its
    middle term has the rank of the cut's dependency class; zero failures
    over the random tree suite."""
    rng = random.Random(99)
    cuts_checked = 0
    for _ in range(100):
        t = random_tree(rng, max_depth=4, max_nodes=12, q_prob=0.0)
        res = decide_inv_free(t)
        for cut in res.cuts:
            assert cut.quotient_rank is not None and cut.step_rank is not None
            left = abelian.FgGroup.free(cut.quotient_rank)
            right = abelian.FgGroup.free(cut.step_rank)
            s = of_direct_sum(left, right)
            # the class: the subtree at the top of the unique-child chain
            # above the cut prime
            top = t.node(cut.prime_id)
            while t.parents[top.node_id] is not t.root \
                    and len(t.parents[top.node_id].children) == 1:
                top = t.parents[top.node_id]
            cls = walked_tree(PrimeNode("0", None, (top,)))
            assert s.mid.invariant_factors == (0,) * tree_rank_oracle(cls)
            assert abelian.split_test(s).splits
            cuts_checked += 1
    assert cuts_checked > 0
    print(f"\nACCEPTANCE 6 divided cuts: PASS ({cuts_checked} sequences exact+split)")


def test_acceptance_7_cantor_bendixson():
    """Derivatives match the brute-force limit-point oracle for all bounds
    below w^3 with coefficients <= 3; ranks of the omega powers; escape
    stages reject exactly the limit-ordinal failures."""
    bounds = ordinal_grid(2, 3)
    for bound in bounds:
        assert cb_derivative(bound) == derived_bound_oracle(bound), bound

    for k in range(1, 6):
        assert cb_rank(Ordinal.omega_power(k)) == Ordinal.from_int(k + 1)

    accepted = rejected = 0
    for gamma in ordinal_grid(2, 3):
        if gamma.is_zero():
            continue
        trace = [(Ordinal.zero(), True), (gamma, False)]
        if gamma.is_successor():
            assert escape_index(trace) == gamma
            accepted += 1
        else:
            try:
                escape_index(trace)
            except MalformedTraceError:
                rejected += 1
            else:
                raise AssertionError(f"limit failure {gamma.render()} accepted")
    assert accepted and rejected
    print(f"\nACCEPTANCE 7 cantor-bendixson: PASS ({len(bounds)} bounds, "
          f"{accepted} successor traces, {rejected} limit traces rejected)")


def test_acceptance_8_cli(tmp_path, capsys):
    """Selftest green on the built-in corpus; JSON reports round-trip
    byte-identically; malformed files exit 2 with a line diagnostic."""
    rc = main(["selftest"])
    out = capsys.readouterr().out
    assert rc == 0 and "FAIL" not in out

    inst = tmp_path / "ytree.json"
    inst.write_text(json.dumps({
        "v": 1, "kind": "prufer_tree",
        "root": {"id": "0", "children": [
            {"id": "P", "label": ["Z"], "children": [
                {"id": "M1", "label": ["Z"]}, {"id": "M2", "label": ["Z"]}]}]}}),
        encoding="utf-8")
    rc = main(["decide", str(inst), "--format", "json"])
    text = capsys.readouterr().out.strip()
    assert rc == 0
    assert canonical_json(json.loads(text)) == text

    bad = tmp_path / "bad.json"
    bad.write_text("{\n  broken\n}", encoding="utf-8")
    rc = main(["decide", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 2" in err
    print("\nACCEPTANCE 8 cli: PASS (selftest green, round-trip byte-identical, "
          "malformed exits 2 with line diagnostic)")
