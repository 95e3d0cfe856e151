import random
import sys
from functools import partial
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igl import abelian, cli
from igl.abelian import (AmalgamPart, FgGroup, FgHom, ShortExactSeq, amalgam_quotient,
                         check_diagram, cokernel, decide_diagram, direct_sum, factor_through,
                         is_free, kernel_with_inclusion, lattices, snake, split_test)
from igl.errors import DiagramError
from igl.matrices import IntMatrix, diagonal_basis, hstack, snf, solve, vstack
from igl.valgroup import canonical_invariants
from oracles import (checked_sequence, congruent_ref, cyclic_amalgam_parts, dense_ses_payload,
                     divisible_elements_brute, has_divisible, is_trivial, kernel,
                     kronecker_split_test, lattice_equal, minors_invariant_factors,
                     of_direct_sum, random_amalgam_instance, random_matrix, random_snake_input,
                     random_unimodular_with_inverse, reference_decide_diagram,
                     reference_lattices, sub_quotient_sequence)


def hom(src, tgt, rows):
    """A map, checked well defined as the parse checks one."""
    h = FgHom(src, tgt, IntMatrix.from_rows([list(r) for r in rows], cols=src.generators))
    FgHom.__post_init__(h)
    return h


def group_record(g):
    """The instance record of a group."""
    return {"generators": g.generators,
            "relators": [list(c) for c in g.relations.transpose().entries]}


def ses_record(left, mid, right, inj, surj):
    """The instance record of a sequence, its maps given by their rows."""
    return {"left": group_record(left), "mid": group_record(mid), "right": group_record(right),
            "inj": inj, "surj": surj}


def is_section(section, s):
    """``surj ∘ section`` is the identity of the right term, as maps."""
    return s.right.congruent(s.surj.matrix @ section.matrix,
                             IntMatrix.identity(s.right.generators))


def test_invariant_factors_and_freeness():
    assert FgGroup.free(3).invariant_factors == (0, 0, 0)
    assert is_free(FgGroup.free(3))
    assert FgGroup.cyclic(2).invariant_factors == (2,)
    assert not is_free(FgGroup.cyclic(2))
    g = cokernel(hom(FgGroup.free(2), FgGroup.free(2), [[2, 0], [0, 1]]))
    assert g.invariant_factors == (2,)
    assert not is_free(g)


def chain(diag, generators):
    """Canonical invariant factors of ``Z^generators`` modulo a matrix
    with Smith diagonal ``diag``."""
    return (tuple(d for d in diag if d > 1)
            + (0,) * (generators - sum(1 for d in diag if d != 0)))


def matrices(entries):
    return st.integers(0, 4).flatmap(
        lambda r: st.integers(0, 5).flatmap(
            lambda c: st.lists(st.lists(entries, min_size=c, max_size=c),
                               min_size=r, max_size=r).map(
                lambda rows: IntMatrix.from_rows(rows, cols=c))))


@pytest.mark.parametrize("entries", [st.integers(-2, 2),
                                     st.integers(-4, 4).map(lambda x: 2 * x)],
                         ids=["unit-rich", "unit-free"])
def test_invariant_factors_match_minors(entries):
    @given(matrices(entries))
    @settings(max_examples=150, deadline=None)
    def check(m):
        assert FgGroup(m.rows, m).invariant_factors == chain(
            minors_invariant_factors(m), m.rows)
    check()


def unit_triangular(rng, n, upper):
    """A unit triangular matrix whose other nonzero entries are ±1."""
    def entry(i, j):
        if i == j:
            return 1
        return rng.choice((-1, 0, 0, 1)) if (j > i) == upper else 0
    return IntMatrix.from_rows([[entry(i, j) for j in range(n)] for i in range(n)])


@pytest.mark.parametrize("n,m", [(12, 24), (24, 48)])
@pytest.mark.parametrize("seed", range(3))
def test_invariant_factors_of_planted_relations(n, m, seed):
    rng = random.Random(seed)
    torsion = [2, 6, 12][:seed + 1]
    free = seed
    diag = torsion + [0] * free + [1] * (n - len(torsion) - free)
    rng.shuffle(diag)
    d = IntMatrix.from_rows([[diag[i] if i == j else 0 for j in range(m)]
                             for i in range(n)])
    u = unit_triangular(rng, n, False) @ unit_triangular(rng, n, True)
    v = unit_triangular(rng, m, True) @ unit_triangular(rng, m, False)
    assert FgGroup(n, u @ d @ v).invariant_factors == tuple(torsion) + (0,) * free


def test_invariant_factors_match_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def check(seed):
        rng = random.Random(seed)
        # a product through a narrow middle has low rank and nontrivial factors
        k = rng.randint(0, 10)
        m = (random_matrix(rng, 10, k, 3) @ random_matrix(rng, k, 14, 3)
             if k else IntMatrix.zeros(10, 14))
        s = smith_normal_form(sympy.Matrix([list(r) for r in m.entries]),
                              domain=sympy.ZZ)
        diag = [abs(s[i, i]) for i in range(10)]
        assert FgGroup(10, m).invariant_factors == chain(diag, 10)
    check()


def test_describe_normalizes_once(monkeypatch):
    from igl import valgroup
    calls = []
    real = valgroup.normalize

    def counting(e):
        calls.append(e)
        return real(e)

    # normalize recurses through its module binding, so nested calls count;
    # a group's expression is built as a normal form, with no normalize call
    monkeypatch.setattr(valgroup, "normalize", counting)
    g = FgGroup.from_invariants(2, 4, 0, 0)
    assert g.describe() == "Z/2 ⊕ Z/4 ⊕ Z^2"
    assert len(calls) == 0


def test_isomorphic_presentations_share_invariant_factors():
    a = FgGroup.from_invariants(2, 6)
    b = FgGroup.from_invariants(2, 6)
    c = FgGroup(2, IntMatrix.from_rows([[2, 0], [0, 6]]))
    assert a.invariant_factors == b.invariant_factors == c.invariant_factors
    assert FgGroup.from_invariants(4, 3).invariant_factors == FgGroup.cyclic(12).invariant_factors
    assert FgGroup.from_invariants(2, 2).invariant_factors != FgGroup.cyclic(4).invariant_factors


def test_kernel_cokernel_examples():
    z = FgGroup.free(1)
    times2 = hom(z, z, [[2]])
    assert is_trivial(kernel(times2))
    assert cokernel(times2).invariant_factors == (2,)
    zero = hom(z, z, [[0]])
    assert kernel(zero).invariant_factors == (0,)
    assert cokernel(zero).invariant_factors == (0,)
    diag23 = hom(FgGroup.free(2), FgGroup.free(2), [[2, 0], [0, 3]])
    assert cokernel(diag23).invariant_factors == (6,)


def congruence_case(seed):
    """``FgGroup.congruent`` against the Smith-form reference on a random
    group of 0-4 generators and 0-4 relators (entries in ±4, so the
    target often has torsion) and matrices of 0-3 columns: ``b`` is ``a``
    plus relations, then one entry of it is moved half the time.  Returns
    the answer."""
    rng = random.Random(seed)
    n, cols = rng.randint(0, 4), rng.randint(0, 3)
    g = FgGroup(n, random_matrix(rng, n, rng.randint(0, 4), 4))
    a = random_matrix(rng, n, cols, 4)
    shift = g.relations @ random_matrix(rng, g.relations.cols, cols, 3)
    b = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a.entries, shift.entries)]
    moved = n and cols and rng.random() < 0.5
    if moved:
        b[rng.randrange(n)][rng.randrange(cols)] += rng.choice((-2, -1, 1, 2))
    b = IntMatrix.from_rows(b, cols=cols)
    answer = g.congruent(a, b)
    assert answer == congruent_ref(g, a, b) == g.congruent(b, a)
    assert answer or moved
    return answer


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10**6))
def test_congruent_matches_columnwise_membership(seed):
    congruence_case(seed)


def test_congruence_cases_reach_both_answers_and_check_shapes():
    assert {congruence_case(seed) for seed in range(20)} == {True, False}
    g = FgGroup.from_invariants(2, 0)
    assert g.congruent(IntMatrix.zeros(2, 0), IntMatrix.zeros(2, 0))
    assert FgGroup.free(0).congruent(IntMatrix.zeros(0, 3), IntMatrix.zeros(0, 3))
    assert g.congruent(IntMatrix.from_rows([[3], [1]]), IntMatrix.from_rows([[1], [1]]))
    assert not g.congruent(IntMatrix.from_rows([[3], [2]]), IntMatrix.from_rows([[1], [1]]))


def test_hom_well_definedness_enforced():
    """The parse checks each map it reads, and names the map."""
    z2 = FgGroup.cyclic(2)
    z = FgGroup.free(1)
    with pytest.raises(DiagramError) as exc:
        cli._parse_hom([[1]], z2, z, "ses.inj")
    assert str(exc.value) == ("ses.inj: not well-defined: image of relator 0 is not a "
                              "relation of the target")
    cli._parse_hom([[2]], z2, FgGroup.cyclic(4), "ses.inj")  # fine: 2*2 = 4


def test_ses_validation():
    z = FgGroup.free(1)
    z2 = FgGroup.free(2)
    cli.parse_ses(ses_record(z, z2, z, [[1], [0]], [[0, 1]]), "ses")
    with pytest.raises(DiagramError) as exc:
        cli.parse_ses(ses_record(z, z2, z, [[1], [0]], [[0, 2]]), "ses")
    assert str(exc.value) == "sequence not exact: the right map is not surjective"


def test_snake_trivial_identity():
    z = FgGroup.free(1)
    z2 = FgGroup.free(2)
    row = checked_sequence(z, z2, z, hom(z, z2, [[1], [0]]), hom(z2, z, [[0, 1]]))
    res = snake(row, row, hom(z, z, [[1]]), hom(z2, z2, [[1, 0], [0, 1]]), hom(z, z, [[1]]))
    assert all(is_trivial(g) for g in res[:6])


def test_snake_times_two():
    z = FgGroup.free(1)
    z2 = FgGroup.free(2)
    row = checked_sequence(z, z2, z, hom(z, z2, [[1], [0]]), hom(z2, z, [[0, 1]]))
    f = hom(z, z, [[2]])
    g = hom(z2, z2, [[2, 0], [0, 2]])
    res = snake(row, row, f, g, f)
    assert [grp.invariant_factors for grp in res[:6]] == [
        (), (), (), (2,), (2, 2), (2,)]


def test_snake_kernel_iso_cokernel_shape():
    # f injective, g identity, h surjective: ker h ≅ coker f
    z = FgGroup.free(1)
    z2 = FgGroup.free(2)
    t = FgGroup.free(0)
    top = checked_sequence(z, z2, z, hom(z, z2, [[1], [0]]), hom(z2, z, [[0, 1]]))
    one = hom(z2, z2, [[1, 0], [0, 1]])
    bottom = checked_sequence(z2, z2, t, one, hom(z2, t, []))
    res = snake(top, bottom, hom(z, z2, [[1], [0]]), one, hom(z, t, []))
    assert res.ker_h.invariant_factors == res.coker_f.invariant_factors == (0,)


def test_snake_rejects_noncommuting():
    z = FgGroup.free(1)
    z2 = FgGroup.free(2)
    row = checked_sequence(z, z2, z, hom(z, z2, [[1], [0]]), hom(z2, z, [[0, 1]]))
    f = hom(z, z, [[2]])
    g = hom(z2, z2, [[3, 0], [0, 3]])
    with pytest.raises(DiagramError, match="square"):
        snake(row, row, f, g, f)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_snake_random_exact(seed):
    rng = random.Random(seed)
    top, bottom, f, g, h = random_snake_input(rng)
    res = snake(top, bottom, f, g, h)
    assert res.verify_exact() is None


def test_split_free_quotient():
    s = of_direct_sum(FgGroup.cyclic(4), FgGroup.free(2))
    res = split_test(s)
    assert res.splits
    assert res.section is not None


def test_split_fails_for_nonsplit_extension():
    z = FgGroup.free(1)
    times2 = hom(z, z, [[2]])
    quotient = cokernel(times2)
    s = checked_sequence(z, z, quotient, times2, FgHom(z, quotient, IntMatrix.identity(1)))
    assert not split_test(s).splits


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_split_always_when_right_free(seed):
    # random subgroup/quotient sequences, not sequences built split
    from oracles import random_row
    rng = random.Random(seed)
    s, _, _ = random_row(rng, rng.randint(1, 3))
    if is_free(s.right):
        res = split_test(s)
        assert res.splits
        assert res.section is not None


def planted_sequence(rng, splits):
    """``0 → Z/a ⊕ Z^4 → mid → Z/b ⊕ Z^4 → 0`` built as a direct sum, plus
    ``0 → Z -d-> Z → Z/d → 0`` when it must not split; the ten or eleven
    middle generators are mixed by a unimodular change of basis, so the
    middle term is not presented in diagonal form."""
    left = [rng.choice((2, 3, 4, 6, 12))] + [0] * 4
    right = [rng.choice((2, 3, 4, 6, 12))] + [0] * 4
    ln, rn = len(left), len(right)
    inj = [[int(i == j) for j in range(ln)] for i in range(ln)] + [[0] * ln] * rn
    surj = [[0] * ln + [int(i == j) for j in range(rn)] for i in range(rn)]
    mid = left + right
    if not splits:
        d = rng.choice((2, 3))
        left, mid, right = left + [0], mid + [0], right + [d]
        inj = [row + [0] for row in inj] + [[0] * ln + [d]]
        surj = [row + [0] for row in surj] + [[0] * (ln + rn) + [1]]
    w, winv = random_unimodular_with_inverse(rng, len(mid), steps=60)
    mid_grp = FgGroup.from_invariants(*mid)
    mixed = FgGroup(mid_grp.generators, w @ mid_grp.relations)
    lg, rg = FgGroup.from_invariants(*left), FgGroup.from_invariants(*right)
    return checked_sequence(lg, mixed, rg,
                            FgHom(lg, mixed, w @ IntMatrix.from_rows(inj, cols=len(left))),
                            FgHom(mixed, rg, IntMatrix.from_rows(surj, cols=len(mid)) @ winv))


def test_split_test_needs_no_smith_form(monkeypatch):
    rng = random.Random(9)
    seqs = [(planted_sequence(rng, splits), splits) for splits in (True, False)]

    def refuse(*args):
        raise RuntimeError("called snf")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "igl" and getattr(module, "snf", None) is snf:
            monkeypatch.setattr(module, "snf", refuse)
    for s, splits in seqs:
        assert s.mid.generators >= 10
        res = split_test(s)
        assert res.splits == splits
        if splits:
            assert is_section(res.section, s)
        # exactness runs one column HNF per map; each generator of the
        # right term lifts through the projection by solve
        ShortExactSeq.__post_init__(s)
        onto = hstack(s.surj.matrix, s.right.relations)
        for j in range(s.right.generators):
            e = [int(i == j) for i in range(s.right.generators)]
            sol = solve(onto, IntMatrix.from_cols([e], rows=len(e)))
            assert onto.apply(sol.col(0)) == tuple(e)


def test_split_test_solves_one_cyclic_factor_at_a_time(monkeypatch):
    # the same planted sequences; no system spans the whole section
    rng = random.Random(9)
    seqs = [(planted_sequence(rng, splits), splits) for splits in (True, False)]
    calls = []

    def counted(m, b):
        calls.append((m.cols, b.cols))
        return solve(m, b)

    monkeypatch.setattr(abelian, "solve", counted)
    for s, splits in seqs:
        calls.clear()
        assert split_test(s).splits == splits
        bound = max(s.mid.generators + s.right.generators,
                    s.left.generators + s.mid.relations.cols)
        assert calls and max(width for width, _ in calls) <= bound
        # one lift of every generator of ⊕ Z/d_i, then one correction per
        # torsion factor, up to the first that admits none
        torsion = sum(1 for d in diagonal_basis(s.right.relations)[0] if abs(d) > 1)
        assert calls[0][1] == s.right.generators
        assert [rhs for _, rhs in calls[1:]] == [1] * (len(calls) - 1)
        if splits:
            assert len(calls) == 1 + torsion
        else:
            assert 1 < len(calls) <= 1 + torsion


def test_snake_lifts_every_kernel_generator_in_one_solve(monkeypatch):
    # f injective, g identity, h zero: ker h ≅ Z^2 ≅ coker f, and the
    # connecting map is one solve through the top projection and one
    # through the bottom inclusion, for both generators of ker h
    z2, z4, t = FgGroup.free(2), FgGroup.free(4), FgGroup.free(0)
    inj = hom(z2, z4, [[1, 0], [0, 1], [0, 0], [0, 0]])
    top = checked_sequence(z2, z4, z2, inj, hom(z4, z2, [[0, 0, 1, 0], [0, 0, 0, 1]]))
    one = hom(z4, z4, IntMatrix.identity(4).entries)
    bottom = checked_sequence(z4, z4, t, one, hom(z4, t, []))
    widths = []

    def counted(m, b):
        widths.append(b.cols)
        return solve(m, b)

    monkeypatch.setattr(abelian, "solve", counted)
    res = snake(top, bottom, inj, one, hom(z2, t, []))
    assert res.ker_h.generators == 2
    assert abelian.is_isomorphism(res.connecting)
    # ker f → ker g and ker g → ker h factor through kernel inclusions
    # first, one solve each
    assert widths == [res.ker_f.generators, res.ker_g.generators, 2, 2]


def random_exact_sequence(rng):
    """``0 → A → B → C → 0`` with ``B`` random (at most 5 generators and 4
    relators, entries in ±4), a projection ``[I | M]`` onto ``C``, whose
    relators are the images of ``B``'s plus up to two random multiples of 2,
    3 or 4 (so ``C`` is rarely diagonal and often has torsion), and ``A``
    the kernel."""
    nB = rng.randint(1, 5)
    mid = FgGroup(nB, random_matrix(rng, nB, rng.randint(0, 4), 4))
    nC = rng.randint(1, nB)
    proj = IntMatrix.from_rows([[int(i == j) for j in range(nC)]
                                + [rng.randint(-4, 4) for _ in range(nB - nC)]
                                for i in range(nC)], cols=nB)
    images = (proj @ mid.relations).transpose().entries
    extra = []
    for _ in range(rng.randint(0, 2)):
        d = rng.randint(2, 4)
        extra.append([d * rng.randint(-2, 2) for _ in range(nC)])
    right = FgGroup(nC, IntMatrix.from_cols(list(images) + extra, rows=nC))
    surj = FgHom(mid, right, proj)
    left, inj = kernel_with_inclusion(surj)
    return checked_sequence(left, mid, right, inj, surj)


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10**6))
def test_split_test_matches_the_kronecker_system_and_miyata(seed):
    # Miyata (1967): a sequence of finitely generated abelian groups
    # splits iff its middle term is isomorphic to the sum of the outer ones
    s = random_exact_sequence(random.Random(seed))
    res = split_test(s)
    oracle = kronecker_split_test(s)
    summed = canonical_invariants(list(s.left.invariant_factors + s.right.invariant_factors))
    assert res.splits == (oracle is not None) == (s.mid.invariant_factors == summed)
    for section in (res.section, oracle):
        if section is not None:
            assert is_section(section, s)


def test_amalgam_diagonal_in_z():
    z = FgGroup.free(1)
    t = FgGroup.free(0)
    part = AmalgamPart(z, hom(z, z, [[1]]), t, hom(z, t, []), hom(z, z, [[1]]))
    assert amalgam_quotient(z, [part, part]) == (0,)
    assert amalgam_quotient(z, [part, part, part]) == (0, 0)


def test_amalgam_with_complements():
    z = FgGroup.free(1)
    a = FgGroup.free(2)
    b = FgGroup.free(1)
    part = AmalgamPart(a, hom(z, a, [[1], [0]]), b, hom(a, b, [[0, 1]]),
                       hom(a, z, [[1, 0]]))
    assert amalgam_quotient(z, [part, part]) == (0, 0, 0)


def test_amalgam_rejects_bad_retraction():
    z = FgGroup.free(1)
    t = FgGroup.free(0)
    bad = AmalgamPart(z, hom(z, z, [[1]]), t, hom(z, t, []), hom(z, z, [[2]]))
    with pytest.raises(DiagramError, match="left inverse"):
        amalgam_quotient(z, [bad, bad])


# Each diagram below fails in its torsion alone: every group in it has rank
# 0, so a predicate that counted ranks would accept them all.
Z2, Z4, ZERO = FgGroup.cyclic(2), FgGroup.cyclic(4), FgGroup.free(0)


@pytest.mark.parametrize("left,right,inj,surj,message", [
    (Z4, Z2, [[2]], [[1]], "sequence not exact: the left map is not injective"),
    (ZERO, Z4, [[]], [[2]], "sequence not exact: the right map is not surjective"),
    # times 3 is onto Z/4 only through the relation 4
    (Z2, Z4, [[2]], [[3]], "sequence not exact: image of the inclusion "
                           "differs from the kernel of the projection"),
], ids=["inj-by-2", "surj-by-2", "image-2Z-kernel-4Z"])
def test_ses_rejections_in_torsion(left, right, inj, surj, message):
    with pytest.raises(DiagramError) as exc:
        cli.parse_ses(ses_record(left, Z4, right, inj, surj), "ses")
    assert str(exc.value) == message


@pytest.mark.parametrize("g,group,complement,emb,proj,retract,message", [
    (Z4, Z4, ZERO, [[2]], [], [[1]], "part 0: embedding is not injective"),
    (Z2, (2, 2), Z2, [[1], [0]], [[1, 1]], [[1, 0]],
     "part 0: projection does not kill the embedded copy"),
    # (projection, retraction) maps Z/2 ⊕ Z/2 into Z/4 ⊕ Z/2, not onto it
    (Z2, (2, 2), Z4, [[1], [0]], [[0, 2]], [[1, 0]],
     "part 0: (projection, retraction) is not an internal direct-sum decomposition"),
    # and Z/2 ⊕ Z/4 onto Z/2 ⊕ Z/2, not one to one
    (Z2, (2, 4), Z2, [[1], [0]], [[0, 1]], [[1, 0]],
     "part 0: (projection, retraction) is not an internal direct-sum decomposition"),
], ids=["emb-by-2", "proj-keeps-the-copy", "not-onto", "not-one-to-one"])
def test_amalgam_rejections_in_torsion(g, group, complement, emb, proj, retract, message):
    a = FgGroup.from_invariants(*group) if isinstance(group, tuple) else group
    part = AmalgamPart(a, hom(g, a, emb), complement, hom(a, complement, proj),
                       hom(a, g, retract))
    for decide in (amalgam_quotient, partial(decide_diagram, "amalgam"),
                   partial(reference_decide_diagram, "amalgam")):
        with pytest.raises(DiagramError) as exc:
            decide(g, [part, part])
        assert str(exc.value) == message


def assert_decides_as_first_written(check, *parsed):
    """The decision against the decision as first written: a ``Decision``
    compares its verdict, every certificate step with its inputs, the
    expression, the metadata and the text."""
    assert decide_diagram(check, *parsed) == reference_decide_diagram(check, *parsed)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_ladder_decision_matches_the_first_written(seed):
    assert_decides_as_first_written("snake", *random_snake_input(random.Random(seed)))


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6))
def test_amalgam_decision_matches_the_first_written(seed, n_parts):
    g, parts, _ = random_amalgam_instance(random.Random(seed), n_parts)
    assert_decides_as_first_written("amalgam", g, parts)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12), st.lists(st.integers(1, 12), min_size=1, max_size=4))
def test_cyclic_amalgam_decision_matches_the_first_written(m, cofactors):
    # each part Z/(c·m) = Z/c ⊕ Z/m needs gcd(m, c) = 1
    orders = [m * c for c in cofactors if gcd(m, c) == 1]
    if orders:
        assert_decides_as_first_written("amalgam", *cyclic_amalgam_parts(m, orders))


def scaled(h, k):
    """``k·h``: a multiple of a well-defined map is well defined."""
    return FgHom(h.source, h.target, IntMatrix.from_rows(
        [[k * x for x in row] for row in h.matrix.entries], cols=h.matrix.cols))


def predicate_cases(seed):
    """Maps and composable pairs between groups with torsion: the rows,
    vertical maps and six-term maps of a random snake ladder and the parts
    of a random amalgam, the first map of each pair but the six-term ones
    also scaled by 0, 2 and 3."""
    rng = random.Random(seed)
    top, bottom, f, g, h = random_snake_input(rng)
    six = snake(top, bottom, f, g, h)
    gg, parts, _ = random_amalgam_instance(rng, 1)
    p = parts[0]
    pairs = [(top.inj, top.surj), (bottom.inj, bottom.surj), (f, bottom.inj),
             (top.inj, g), (g, bottom.surj), (top.surj, h),
             (six.ker_fg, six.ker_gh), (six.ker_gh, six.connecting),
             (six.connecting, six.coker_fg), (six.coker_fg, six.coker_gh),
             (p.emb, p.proj), (p.emb, p.retract)]
    pairs += [(scaled(a, k), b) for a, b in pairs[:6] + pairs[10:] for k in (0, 2, 3)]
    maps = list({id(m): m for pair in pairs for m in pair}.values())
    return maps, pairs


def check_predicates(seed):
    """The lattice predicates against the group-based oracles; returns the
    outcomes seen."""
    maps, pairs = predicate_cases(seed)
    seen = set()
    for m in maps:
        pair = lattices(m)
        injective = abelian.injective(m, pair)
        surjective = abelian.surjective(m, pair)
        assert injective == is_trivial(kernel(m))
        assert surjective == (cokernel(m).invariant_factors == ())
        seen |= {("injective", injective), ("surjective", surjective)}
    for a, b in pairs:
        exact = lattices(a).image == lattices(b).kernel
        assert exact == lattice_equal(reference_lattices(a)[0], reference_lattices(b)[1])
        # exact: b∘a is zero and the homology ker b / im a is trivial
        zero = IntMatrix.zeros(b.target.generators, a.source.generators)
        homology = b.target.congruent(b.matrix @ a.matrix, zero) and is_trivial(
            cokernel(factor_through(a.source, a.matrix, kernel_with_inclusion(b)[1])))
        assert exact == homology
        seen.add(("exact", exact))
    return seen


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lattice_predicates_match_the_group_oracles(seed):
    check_predicates(seed)


def test_predicate_cases_reach_both_answers():
    seen = set().union(*(check_predicates(seed) for seed in range(10)))
    assert seen == {(name, answer) for name in ("injective", "surjective", "exact")
                    for answer in (True, False)}


def lattice_cases(seed):
    """Well-defined maps: the rows, vertical maps and six-term maps of a
    random snake ladder, and every map of a random amalgam's parts (whose
    groups, complements among them, may have no generator)."""
    rng = random.Random(seed)
    top, bottom, f, g, h = random_snake_input(rng)
    six = snake(top, bottom, f, g, h)
    maps = [top.inj, top.surj, bottom.inj, bottom.surj, f, g, h, six.ker_fg, six.ker_gh,
            six.connecting, six.coker_fg, six.coker_gh]
    for p in random_amalgam_instance(rng, rng.randint(1, 3))[1]:
        maps += [p.emb, p.proj, p.retract]
    return maps


def edge_maps():
    """Maps from or to a group with no generator, and maps between groups
    with no relator."""
    z0, z, z2, z6 = FgGroup.free(0), FgGroup.free(1), FgGroup.free(2), FgGroup.cyclic(6)
    z4z = FgGroup.from_invariants(4, 0)
    return [hom(z0, z6, [[]]), hom(z0, z2, [[], []]), hom(z4z, z0, []), hom(z0, z0, []),
            hom(z2, z, [[2, 3]]), hom(z2, z2, [[1, 2], [2, 4]]), hom(z, z2, [[0], [0]]),
            hom(z2, z6, [[1, 3]]), hom(z4z, z6, [[3, 2]]), hom(z6, z4z, [[2], [0]])]


def test_lattices_match_the_reference_route_on_edge_maps():
    for m in edge_maps():
        assert tuple(lattices(m)) == reference_lattices(m)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_lattices_match_the_reference_route(seed):
    for m in lattice_cases(seed):
        assert tuple(lattices(m)) == reference_lattices(m)


@pytest.mark.parametrize("n", [8, 16, 24])
def test_lattices_match_the_reference_route_on_dense_sequences(n):
    s = cli.parse_ses(dense_ses_payload(n, 0)["ses"], "ses")
    for m in (s.inj, s.surj):
        assert tuple(lattices(m)) == reference_lattices(m)


def test_kernel_basis_solves_every_source_relator():
    for m in edge_maps() + [m for seed in range(40) for m in lattice_cases(seed)]:
        grp, incl = kernel_with_inclusion(m)
        assert incl.matrix @ grp.relations == m.source.relations
        assert m.target.congruent(m.matrix @ incl.matrix,
                                  IntMatrix.zeros(m.target.generators, grp.generators))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 4))
def test_amalgam_random(seed, n_parts):
    rng = random.Random(seed)
    g, parts, expected = random_amalgam_instance(rng, n_parts)
    assert amalgam_quotient(g, parts) == expected.invariant_factors
    # the quotient's own presentation, and the isomorphism verify builds
    phi = FgHom(g, direct_sum([p.group for p in parts]), vstack(*[p.emb.matrix for p in parts]))
    assert cokernel(phi).invariant_factors == expected.invariant_factors
    assert check_diagram("amalgam", g, parts) == [
        ("amalgam-isomorphism", True, "kernel and surjectivity verified")]


def test_divisible_examples():
    for g in (FgGroup.free(2), FgGroup.cyclic(4), FgGroup.free(0)):
        assert has_divisible(g.to_expr()) is False


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(2, 6), max_size=2))
def test_divisible_matches_bruteforce(factors):
    # the brute force finds only the identity, which is what the symbolic
    # layer assumes of every finitely generated group
    g = FgGroup.from_invariants(*factors)
    identity = (0,) * len(g.invariant_factors)
    assert divisible_elements_brute(g.invariant_factors) == [identity]
    assert has_divisible(g.to_expr()) is False


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_subgroup_of_free_is_free(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    free = FgGroup.free(n)
    h = FgHom(FgGroup.free(k), free, random_matrix(rng, n, k, 5))
    # the image is the source modulo the kernel
    assert is_free(cokernel(kernel_with_inclusion(h)[1]))


def test_sub_quotient_sequence_roundtrip():
    rng = random.Random(11)
    mid = FgGroup(3, random_matrix(rng, 3, 1, 3))
    gens = random_matrix(rng, 3, 2, 3)
    s = sub_quotient_sequence(mid, hstack(mid.relations, gens))
    assert s.mid is mid
