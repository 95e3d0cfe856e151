import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from igl.abelian import FgGroup
from igl.matrices import (IntMatrix, _diagonal_form, column_hnf, diagonal_basis, gcdex,
                          hstack, kernel_basis, lattice_solve, snf, solve, unit_core)
from igl.valgroup import canonical_invariants
from oracles import (bezout_column_hnf, bezout_diagonal_form, cofactor_det, diagonal,
                     gcd_step_column_hnf, lattice_equal, minors_invariant_factors,
                     random_matrix, reference_snf, smith_kernel_basis, smith_solve)

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


def mat(rows):
    return IntMatrix.from_rows([list(r) for r in rows])


def column(vec):
    """A vector as a one-column right-hand side of ``solve``."""
    return IntMatrix.from_cols([list(vec)], rows=len(vec))


def test_snf_identity():
    u, s, v = snf(IntMatrix.identity(2))
    assert diagonal(s) == (1, 1)
    assert u.entries == IntMatrix.identity(2).entries
    assert v.entries == IntMatrix.identity(2).entries


def test_snf_zero():
    u, s, v = snf(IntMatrix.zeros(2, 3))
    assert s.entries == IntMatrix.zeros(2, 3).entries


def test_snf_worked_example():
    m = mat([[2, 4], [6, 8]])
    u, s, v = snf(m)
    assert diagonal(s) == (2, 4)
    assert (u @ m @ v).entries == s.entries


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_snf_properties(rows):
    m = mat(rows)
    u, s, v = snf(m)
    assert (u @ m @ v).entries == s.entries
    assert abs(u.det()) == 1
    assert abs(v.det()) == 1
    diag = diagonal(s)
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j:
                assert s.entries[i][j] == 0
    for a, b in zip(diag, diag[1:]):
        assert a >= 0 and b >= 0
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert diag == minors_invariant_factors(m)


@pytest.mark.parametrize("rows,diag", [([[2, 0], [0, 3]], (1, 6)),
                                       ([[4, 0], [0, 6]], (2, 12)),
                                       ([[6, 0, 0], [0, -4, 0], [0, 0, 9]], (1, 6, 36))])
def test_snf_forces_the_chain(rows, diag):
    # a diagonal input leaves the elimination as it came, so only the
    # gcd/lcm sweep (and the sign) can bring it into a divisibility chain
    m = mat(rows)
    u, s, v = snf(m)
    assert diagonal(s) == diag
    assert u @ m @ v == s
    assert abs(u.det()) == abs(v.det()) == 1


@given(st.integers(0, 6).flatmap(lambda r: st.integers(0, 8).flatmap(
    lambda c: st.tuples(
        st.lists(st.lists(st.integers(-9, 9), min_size=c, max_size=c),
                 min_size=r, max_size=r),
        st.booleans()).map(
        # all-even entries leave no unit pivot, so the chain needs the sweep
        lambda t: IntMatrix.from_rows([[2 * x if t[1] else x for x in row]
                                       for row in t[0]], cols=c)))))
@settings(max_examples=300, deadline=None)
def test_snf_matches_the_reference(m):
    # zero-row and zero-column shapes included
    u, s, v = snf(m)
    assert s == reference_snf(m)[1]
    assert u @ m @ v == s
    assert abs(u.det()) == abs(v.det()) == 1


def test_snf_matches_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import smith_normal_form

    @given(st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def check(seed):
        rng = random.Random(seed)
        # a product through a narrow middle has low rank and nontrivial factors
        k = rng.randint(1, 10)
        m = random_matrix(rng, 10, k, 3) @ random_matrix(rng, k, 14, 3)
        s = smith_normal_form(sympy.Matrix([list(r) for r in m.entries]), domain=sympy.ZZ)
        assert diagonal(snf(m)[1]) == tuple(abs(s[i, i]) for i in range(10))
    check()


@given(small_matrices)
@settings(max_examples=80, deadline=None)
def test_unit_core_keeps_the_smith_form(rows):
    m = mat(rows)
    units, core = unit_core(m)
    assert (core.rows, core.cols) == (m.rows - units, m.cols - units)
    assert all(abs(x) != 1 for row in core.entries for x in row)
    assert (1,) * units + diagonal(snf(core)[1]) == diagonal(snf(m)[1])


def test_unit_core_worked_example():
    # the 1 at (0, 1) clears column 1 and turns row 1 into (1, 0, 0),
    # whose 1 goes next
    units, core = unit_core(mat([[2, 1, 0], [3, 1, 0], [0, 2, 4]]))
    assert units == 2
    assert core.entries == ((4,),)


@given(small_matrices)
@settings(max_examples=50, deadline=None)
def test_kernel_and_solve(rows):
    m = mat(rows)
    kb = kernel_basis(m)
    for j in range(kb.cols):
        assert all(x == 0 for x in m.apply(kb.col(j)))
    rng = random.Random(7)
    x = [rng.randint(-3, 3) for _ in range(m.cols)]
    b = m.apply(x)
    sol = solve(m, column(b))
    assert sol is not None
    assert m.apply(sol.col(0)) == tuple(b)


def test_solve_unsolvable():
    m = mat([[2]])
    assert solve(m, column([1])) is None
    assert solve(m, column([4])) == column([2])


sparse_systems = st.integers(1, 8).flatmap(
    lambda r: st.integers(1, 12).flatmap(
        lambda c: st.tuples(
            # entries in [-9, 9], about 40% of them zero
            st.lists(st.lists(st.integers(-15, 15).map(lambda e: e if abs(e) <= 9 else 0),
                              min_size=c, max_size=c), min_size=r, max_size=r),
            st.lists(st.integers(-3, 3), min_size=c, max_size=c),
            st.one_of(st.none(), st.tuples(st.integers(0, r - 1), st.integers(1, 3))))))


@given(sparse_systems)
@settings(max_examples=200, deadline=None)
def test_diagonal_form_agrees_with_smith(system):
    rows, x, perturb = system
    m = mat(rows)
    b = list(m.apply(x))
    if perturb is not None:
        b[perturb[0]] += perturb[1]
    sol = solve(m, column(b))
    assert (sol is None) == (smith_solve(m, b) is None)
    if sol is not None:
        assert m.apply(sol.col(0)) == tuple(b)
    kb = kernel_basis(m)
    rank = sum(1 for d in diagonal(reference_snf(m)[1]) if d)
    assert kb.cols == m.cols - rank
    assert column_hnf(kb) == column_hnf(smith_kernel_basis(m))


@given(small_matrices, small_matrices)
@settings(max_examples=40, deadline=None)
def test_hnf_canonical(rows_a, rows_b):
    a = mat(rows_a)
    h = column_hnf(a)
    # the HNF spans the same lattice: each generates the other
    for j in range(a.cols):
        assert lattice_solve(h, a.col(j)) is not None
    assert lattice_equal(a, h)
    b = mat(rows_b)
    if a.rows == b.rows:
        joined = hstack(a, b)
        assert lattice_equal(joined, hstack(b, a))


@given(small_matrices, st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_hnf_invariant_under_column_transforms(rows, seed):
    # unimodular column operations do not change the lattice, so they must
    # not change the canonical basis either
    rng = random.Random(seed)
    a = mat(rows)
    u = [[1 if i == j else 0 for j in range(a.cols)] for i in range(a.cols)]
    for _ in range(4):
        if a.cols < 2:
            break
        i, j = rng.sample(range(a.cols), 2)
        c = rng.randint(-2, 2)
        for t in range(a.cols):
            u[t][j] += c * u[t][i]
    transformed = a @ IntMatrix.from_rows(u, cols=a.cols)
    assert column_hnf(a).entries == column_hnf(transformed).entries


@given(st.integers(0, 6).flatmap(lambda r: st.integers(0, 10).flatmap(
    lambda c: st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 6, -9)),
                                min_size=c, max_size=c),
                       min_size=r, max_size=r).map(
        lambda rows: IntMatrix.from_rows(rows, cols=c)))))
@settings(max_examples=300, deadline=None)
def test_hnf_matches_the_gcd_step_reference(m):
    # the divisible-entry shortcut and the rows skipped above the pivot
    # change the steps, never the canonical basis; zero-row and zero-column
    # shapes included
    assert column_hnf(m) == gcd_step_column_hnf(m)


@st.composite
def wide_matrices(draw, max_rows=16, max_cols=24):
    """Matrices up to 16x24, zero-row and zero-column shapes included.  The
    rows past a drawn count are integer combinations of the rows before
    it, so the rank often falls short of both sides."""
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    entry = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, -3, 6, -9))
    rows = [draw(st.lists(entry, min_size=c, max_size=c)) for _ in range(r)]
    free = draw(st.integers(0, r))
    for i in range(free, r):
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=free, max_size=free))
        rows[i] = [sum(a * row[j] for a, row in zip(coeffs, rows)) for j in range(c)]
    return IntMatrix.from_rows(rows, cols=c)


@given(wide_matrices())
@settings(max_examples=150, deadline=None)
def test_hnf_matches_the_bezout_reference(m):
    # remainder pivoting changes the steps, never the canonical basis
    assert column_hnf(m) == bezout_column_hnf(m)


@given(wide_matrices())
@settings(max_examples=150, deadline=None)
def test_diagonal_form_matches_the_bezout_reference(m):
    n, k = m.rows, m.cols
    diag, u, v = _diagonal_form(m, IntMatrix.identity(n))
    ref_diag, _, ref_v = bezout_diagonal_form(m)
    assert len(diag) == len(ref_diag)
    assert canonical_invariants([abs(d) for d in diag]) == \
        canonical_invariants([abs(d) for d in ref_diag])
    # the carried identity is U, and U·m·V is the diagonal reported
    um, vm = IntMatrix.from_rows(u, cols=n), IntMatrix.from_cols(v, rows=k)
    assert um @ m @ vm == IntMatrix.from_rows(
        [[d if j == i else 0 for j in range(k)] for i, d in enumerate(diag)]
        + [[0] * k] * (n - len(diag)), cols=k)
    assert abs(um.det()) == abs(vm.det()) == 1
    assert column_hnf(kernel_basis(m)) == \
        column_hnf(IntMatrix.from_cols(ref_v[len(ref_diag):], rows=k))


@given(wide_matrices(), st.data())
@settings(max_examples=100, deadline=None)
def test_solve_meets_every_right_hand_side(m, data):
    # m·x for small x, some of them moved off the lattice by one entry
    p = data.draw(st.integers(1, 3))
    xs = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=m.cols, max_size=m.cols),
                            min_size=p, max_size=p))
    bs = [list(m.apply(x)) for x in xs]
    if m.rows:
        for b in bs:
            if data.draw(st.booleans()):
                b[data.draw(st.integers(0, m.rows - 1))] += data.draw(st.integers(1, 3))
    b = IntMatrix.from_cols(bs, rows=m.rows)
    x = solve(m, b)
    solvable = all(lattice_solve(bezout_column_hnf(m), col) is not None for col in bs)
    assert (x is not None) == solvable
    if x is not None:
        assert m @ x == b


def test_hnf_spans_the_lattice_of_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import hermite_normal_form

    @given(wide_matrices())
    @settings(max_examples=40, deadline=None)
    def check(m):
        h = hermite_normal_form(sympy.Matrix(m.rows, m.cols, [x for r in m.entries for x in r]))
        basis = IntMatrix(h.rows, h.cols, tuple(tuple(int(h[i, j]) for j in range(h.cols))
                                                for i in range(h.rows)))
        # sympy's basis has its own layout; both are bases of one lattice
        # when they have the same rank and the same canonical form
        assert column_hnf(m).cols == basis.cols
        assert column_hnf(basis) == column_hnf(m)
    check()


def test_lattice_membership():
    basis = column_hnf(mat([[2, 0], [0, 3]]))
    assert lattice_solve(basis, (2, 3)) is not None
    assert lattice_solve(basis, (1, 0)) is None
    # row 1 holds no pivot, and the pivot column leaves 1 there
    assert lattice_solve(column_hnf(mat([[1], [2], [0]])), (1, 3, 0)) is None


@given(st.integers(1, 5).flatmap(lambda r: st.integers(0, 6).flatmap(
    lambda c: st.integers(1, 3).flatmap(lambda p: st.tuples(
        st.lists(st.lists(st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 6)),
                          min_size=c, max_size=c),
                 min_size=r, max_size=r).map(lambda rows: IntMatrix.from_rows(rows, cols=c)),
        st.lists(st.lists(st.integers(-3, 3), min_size=c, max_size=c),
                 min_size=p, max_size=p),
        st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                 min_size=p, max_size=p))))))
@settings(max_examples=300, deadline=None)
def test_lattice_solve_agrees_with_solve(case):
    # one to three lattice vectors a·x, each moved off it by a shift or
    # not; rank-deficient matrices leave rows without a pivot
    a, xs, shifts = case
    h = column_hnf(a)
    vs = [[p + s for p, s in zip(a.apply(x), shift)] for x, shift in zip(xs, shifts)]
    alone = [solve(a, column(v)) for v in vs]
    for v, sol in zip(vs, alone):
        coords = lattice_solve(h, v)
        assert (coords is None) == (sol is None)
        if coords is not None:
            assert h.apply(coords) == tuple(v)
    # all of them as the columns of one right-hand side: no solution when
    # some column alone has none, else each column's own solution
    together = solve(a, IntMatrix.from_cols(vs, rows=a.rows))
    if None in alone:
        assert together is None
    else:
        assert [together.col(j) for j in range(len(vs))] == [sol.col(0) for sol in alone]
    # a vector that fails only at a row holding no pivot
    point = a.apply(xs[0])
    pivots = {next(i for i, row in enumerate(h.entries) if row[j]) for j in range(h.cols)}
    for i in set(range(h.rows)) - pivots:
        off = list(point)
        off[i] += 1
        assert lattice_solve(h, off) is None and solve(a, column(off)) is None


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_gcdex(a, b):
    g, x, y = gcdex(a, b)
    assert g == x * a + y * b
    assert g >= 0


@given(small_matrices)
@settings(max_examples=40, deadline=None)
def test_det_matches_cofactor(rows):
    m = mat(rows)
    if m.rows == m.cols:
        assert m.det() == cofactor_det([list(r) for r in rows])
