"""Independent oracles and random-instance generators for the test suite.

Everything here deliberately avoids the code paths it is used to check:
determinants are cofactor expansions rather than Bareiss, invariant
factors come from gcds of minors rather than Smith reduction, Smith
forms, integer solutions and kernels come from a Smith elimination of
their own, which forces the divisibility chain as it goes, rather than
from the engine's shared diagonal elimination (so two maps agree when
each column of their difference solves against the relators, rather than
when it reduces against the relation HNF), column HNFs and diagonal
forms come from extended-gcd (Bezout) combinations rather than the
engine's remainder pivoting, sections of a short
exact sequence come from one linear system over all section entries
rather than one cyclic factor at a time, derived-set
bounds come from a max-search over a candidate grid rather than normal
form surgery, tree ranks come from a direct structural recursion
rather than the cut-and-sum decision procedure, and the freeness rules
of symbolic groups are replayed by structural recursion over a normal
form rather than by the iterative atom walk, and ordinals are compared
through dense coefficient vectors rather than their term tuples,
and injectivity, surjectivity and exactness are decided by presenting
the kernel or cokernel group and taking its invariant factors, or by
bringing two lattices to HNF once more, rather than by one comparison of
canonical HNFs, and a map's image and kernel lattices come from two
eliminations, a diagonal form and an HNF, rather than from one HNF of
the stacked matrix.

It also holds the helpers that only tests need: ``normal_sum`` and
``render_normal`` as first written (the references of the exact-type
dispatch that replaced them), ``decide_inv_free`` as first written (the
reference of the one walk that replaced it), the ladder and amalgam
branches of ``decide_diagram`` as first written (the references of the
decisions that build only what they report), the parser of the report
grammar (the round-trip oracle of ``render_expr``), the three-valued
torsion and divisible predicates of the atom walk, direct-sum and
sub-quotient sequences of finitely generated groups, the hand-built
certified amalgam parts of a several-branch finite-field unit quotient
(a reference for the unit-quotient rule where ``U(k)`` is a summand), the left
product ``w * a`` of ordinals, the scattered decision's expression
built and normalized the first way (one ``Repeated`` per stratum), the
dependency classes of a spectral
tree, the slot names of a value tower, the free rank of an
expression, the diagonal of a matrix, the dense ``group`` and
``ses`` instances and the many-part ``amalgam`` instance of the integer
engine's growth tests (CI writes them too), and the ``argparse`` parser
that the command line used before its command table, the reference of
the argv reader, with the grid of argv read against it.
"""

from __future__ import annotations

import argparse
import random
import re
from itertools import combinations, product
from math import gcd, lcm

from igl.abelian import (AmalgamPart, FgGroup, FgHom, ShortExactSeq, _sublattice_group,
                         cokernel, direct_sum, factor_through, injective, is_free,
                         is_isomorphism, kernel_with_inclusion, lattices, snake, surjective)
from igl.errors import DiagramError, SchemaError
from igl.matrices import (IntMatrix, _diagonal_form, block_diag, column_hnf, gcdex, hstack,
                          solve, vstack)
from igl.prufer import (_CLASS_SUM, _DIVIDED_CUT, _VALUATION_INV_ISO, DividedCut, InvDecision,
                        PrimeNode, SpecTree, _free_at, _internal_gate, _tower_below, gamma_at)
from igl.scattered import Ordinal, ScatteredSpace, stratum_multiplicity
from igl.valgroup import (TRIVIAL, UNKNOWN, ZPROD, Atom, CertStep, Cyclic, Decision, DirectSum,
                          GroupExpr, LexTower, Opaque, Q, R, Repeated,
                          ValueTower, Verdict, Z, _atom_divisible, _atom_torsion, _atoms,
                          _render_flags, canonical_invariants, expr_invariant_factors,
                          freeness_verdict, normalize, render_expr, render_normal)


# ---------------------------------------------------------------------------
# gcd-of-minors invariant factors
# ---------------------------------------------------------------------------

def cofactor_det(rows: list[list[int]]) -> int:
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        total += (-1) ** j * head * cofactor_det(minor)
    return total


def minors_invariant_factors(m: IntMatrix) -> tuple[int, ...]:
    """Invariant factors as successive quotients of the gcds of k x k
    minors (the determinantal-divisor characterization)."""
    r, c = m.rows, m.cols
    out = []
    d_prev = 1
    for k in range(1, min(r, c) + 1):
        d_k = 0
        for rows_idx in combinations(range(r), k):
            for cols_idx in combinations(range(c), k):
                sub = [[m.entries[i][j] for j in cols_idx] for i in rows_idx]
                d_k = gcd(d_k, cofactor_det(sub))
                if d_k == d_prev:
                    break
            if d_k == d_prev:
                break
        if d_k == 0:
            out.extend([0] * (min(r, c) - k + 1))
            break
        out.append(d_k // d_prev)
        d_prev = d_k
    return tuple(out)


# ---------------------------------------------------------------------------
# The Smith form by its own elimination
# ---------------------------------------------------------------------------

def reference_snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms, by the engine's previous
    elimination: the divisibility chain is forced inside the elimination,
    by adding a row whose entry the pivot does not divide.

    Returns ``(U, S, V)`` where ``U`` and ``V`` are unimodular
    (``|det| = 1``), ``S = U @ m @ V`` is (rectangular) diagonal with
    nonnegative entries ``d_1 | d_2 | ...`` forming a divisibility chain.

    The pivot at each stage is the entry of smallest nonzero absolute
    value in the remaining submatrix, which keeps intermediate entries
    small.
    """
    n, k = m.rows, m.cols
    a = [list(row) for row in m.entries]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    v = [[1 if i == j else 0 for j in range(k)] for i in range(k)]

    def swap_rows(i, j):
        if i != j:
            a[i], a[j] = a[j], a[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in a:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def combine_rows(i, j, x, y, p, q):
        # rows (i, j) <- (x*row_i + y*row_j, -q*row_i + p*row_j); det = xp + yq
        for t in range(k):
            ai, aj = a[i][t], a[j][t]
            a[i][t] = x * ai + y * aj
            a[j][t] = -q * ai + p * aj
        for t in range(n):
            ui, uj = u[i][t], u[j][t]
            u[i][t] = x * ui + y * uj
            u[j][t] = -q * ui + p * uj

    def combine_cols(i, j, x, y, p, q):
        for row in a:
            ai, aj = row[i], row[j]
            row[i] = x * ai + y * aj
            row[j] = -q * ai + p * aj
        for row in v:
            vi, vj = row[i], row[j]
            row[i] = x * vi + y * vj
            row[j] = -q * vi + p * vj

    def add_row_multiple(dst, src, c):
        for t in range(k):
            a[dst][t] += c * a[src][t]
        for t in range(n):
            u[dst][t] += c * u[src][t]

    def negate_row(i):
        for t in range(k):
            a[i][t] = -a[i][t]
        for t in range(n):
            u[i][t] = -u[i][t]

    dim = min(n, k)
    t = 0
    while t < dim:
        # pivot: smallest nonzero absolute value in the trailing submatrix
        piv = None
        best = None
        for i in range(t, n):
            for j in range(t, k):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])
        while True:
            for i in range(t + 1, n):
                if a[i][t] != 0:
                    p0, e = a[t][t], a[i][t]
                    if e % p0 == 0:
                        add_row_multiple(i, t, -(e // p0))
                    else:
                        g, x, y = gcdex(p0, e)
                        combine_rows(t, i, x, y, p0 // g, e // g)
            col_clean = all(a[i][t] == 0 for i in range(t + 1, n))
            for j in range(t + 1, k):
                if a[t][j] != 0:
                    p0, e = a[t][t], a[t][j]
                    if e % p0 == 0:
                        c = -(e // p0)
                        for row in a:
                            row[j] += c * row[t]
                        for row in v:
                            row[j] += c * row[t]
                    else:
                        g, x, y = gcdex(p0, e)
                        combine_cols(t, j, x, y, p0 // g, e // g)
            row_clean = all(a[t][j] == 0 for j in range(t + 1, k))
            col_clean = col_clean and all(a[i][t] == 0 for i in range(t + 1, n))
            if not (row_clean and col_clean):
                continue
            # force the divisibility chain: the pivot must divide the rest
            d = a[t][t]
            bad = None
            for i in range(t + 1, n):
                for j in range(t + 1, k):
                    if a[i][j] % d != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            add_row_multiple(t, bad, 1)
        if a[t][t] < 0:
            negate_row(t)
        t += 1
    um = IntMatrix.from_rows(u, cols=n)
    vm = IntMatrix.from_rows(v, cols=k)
    sm = IntMatrix.from_rows(a, cols=k)
    return um, sm, vm


# ---------------------------------------------------------------------------
# Smith-based solve and kernel, the gcd-step HNF and the one-system split
# test (the engine's previous paths)
# ---------------------------------------------------------------------------

def smith_kernel_basis(m: IntMatrix) -> IntMatrix:
    """Kernel basis from the full Smith form: the columns of ``V`` whose
    diagonal entry of ``S = U·m·V`` is zero or missing."""
    _, s, v = reference_snf(m)
    diag = diagonal(s)
    free = [i for i in range(m.cols) if i >= len(diag) or diag[i] == 0]
    return IntMatrix.from_cols([list(v.col(i)) for i in free], rows=m.cols)


def smith_solve(m: IntMatrix, b) -> tuple[int, ...] | None:
    """One integer solution of ``m x = b`` through the full Smith form
    ``U·m·V = S``, with ``U`` applied to ``b``; ``None`` if there is none."""
    u, s, v = reference_snf(m)
    c = u.apply(tuple(b))
    y = [0] * m.cols
    diag = diagonal(s)
    for i in range(len(diag)):
        d = diag[i]
        if d == 0:
            if c[i] != 0:
                return None
        else:
            if c[i] % d != 0:
                return None
            y[i] = c[i] // d
    for i in range(len(diag), m.rows):
        if c[i] != 0:
            return None
    return v.apply(tuple(y))


def congruent_ref(g: FgGroup, a: IntMatrix, b: IntMatrix) -> bool:
    """Do ``a`` and ``b`` agree modulo the relations of ``g``?  Each column
    of ``a − b`` is solved for in the relators through the full Smith
    form."""
    return all(smith_solve(g.relations, [x - y for x, y in zip(a.col(j), b.col(j))]) is not None
               for j in range(a.cols))


def gcd_step_column_hnf(m: IntMatrix) -> IntMatrix:
    """Column HNF by one extended-gcd step per nonzero entry, applied to
    every row: the engine's elimination before ``bezout_column_hnf``, with
    no divisible-entry shortcut and no restriction to the rows below the
    pivot."""
    n, k = m.rows, m.cols
    a = [list(row) for row in m.entries]
    j = 0
    for i in range(n):
        if j >= k:
            break
        piv = None
        for l in range(j, k):
            if a[i][l] != 0:
                if piv is None:
                    piv = l
                else:
                    p0, e = a[i][piv], a[i][l]
                    g, x, y = gcdex(p0, e)
                    p, q = p0 // g, e // g
                    for t in range(n):
                        ap, al = a[t][piv], a[t][l]
                        a[t][piv] = x * ap + y * al
                        a[t][l] = -q * ap + p * al
        if piv is None:
            continue
        if piv != j:
            for row in a:
                row[piv], row[j] = row[j], row[piv]
        if a[i][j] < 0:
            for t in range(n):
                a[t][j] = -a[t][j]
        d = a[i][j]
        for c in range(j):
            q = a[i][c] // d
            if q:
                for t in range(n):
                    a[t][c] -= q * a[t][j]
        j += 1
    return IntMatrix(n, j, tuple(tuple(row[:j]) for row in a))


def bezout_column_hnf(m: IntMatrix) -> IntMatrix:
    """Column HNF by one extended-gcd (Bezout) combination per entry the
    pivot does not divide: the engine's previous elimination, before
    remainder pivoting.  An entry the pivot divides is cleared by a column
    subtraction, not a gcd step."""
    n, k = m.rows, m.cols
    a = [list(row) for row in m.entries]
    j = 0
    for i in range(n):
        if j >= k:
            break
        # columns j.. are zero above row i, so every update starts at row i
        below = a[i:]
        piv = None
        for l in range(j, k):
            if a[i][l] != 0:
                if piv is None:
                    piv = l
                    continue
                p0, e = a[i][piv], a[i][l]
                if e % p0 == 0:
                    q = e // p0
                    for row in below:
                        row[l] -= q * row[piv]
                    continue
                g, x, y = gcdex(p0, e)
                p, q = p0 // g, e // g
                for row in below:
                    ap, al = row[piv], row[l]
                    row[piv] = x * ap + y * al
                    row[l] = -q * ap + p * al
        if piv is None:
            continue
        sign = -1 if a[i][piv] < 0 else 1
        for row in below:
            row[piv], row[j] = row[j], sign * row[piv]
        d = a[i][j]
        for c in range(j):
            q = a[i][c] // d
            if q:
                for row in below:
                    row[c] -= q * row[j]
        j += 1
    return IntMatrix(n, j, tuple(tuple(row[:j]) for row in a))


def bezout_diagonal_form(m: IntMatrix, rhs: IntMatrix | None = None
                         ) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """The engine's previous diagonal elimination, before remainder
    pivoting: an entry the pivot does not divide is combined with it by
    its Bezout (extended-gcd) multipliers, in the pivot column by row
    operations and then in the pivot row by column operations, until both
    hold the pivot alone.  Returns ``(diag, carried, vcols)`` as the
    engine's ``_diagonal_form`` does: the pivot is the smallest nonzero
    absolute value, the search stopping at the first ``±1``, and the
    columns of ``rhs`` ride through the row operations only."""
    n, k = m.rows, m.cols
    extra = rhs.entries if rhs is not None else ((),) * n
    a = [list(row) + list(r) for row, r in zip(m.entries, extra)]
    vc = [[0] * k for _ in range(k)]
    for j, col in enumerate(vc):
        col[j] = 1
    diag = []
    for t in range(min(n, k)):
        piv = None
        for i in range(t, n):
            tail = a[i][t:k]
            if 1 in tail or -1 in tail:
                piv = i, t + min(tail.index(e) for e in (1, -1) if e in tail)
                break
        else:
            best = 0
            for i in range(t, n):
                row = a[i]
                for j in range(t, k):
                    x = row[j]
                    if x and (piv is None or abs(x) < best):
                        piv, best = (i, j), abs(x)
        if piv is None:
            break
        i, j = piv
        a[t], a[i] = a[i], a[t]
        if j != t:
            for row in a:
                row[t], row[j] = row[j], row[t]
            vc[t], vc[j] = vc[j], vc[t]
        while True:
            # rows: clear column t below the pivot; columns left of t are zero
            rt = a[t]
            for i in range(t + 1, n):
                ri = a[i]
                e = ri[t]
                if not e:
                    continue
                p0 = rt[t]
                if e % p0 == 0:
                    c = e // p0
                    ri[t:] = [x - c * y for x, y in zip(ri[t:], rt[t:])]
                else:
                    g, x, y = gcdex(p0, e)
                    p, q = p0 // g, e // g
                    rt[t:], ri[t:] = ([x * u + y * w for u, w in zip(rt[t:], ri[t:])],
                                      [p * w - q * u for u, w in zip(rt[t:], ri[t:])])
            # columns: clear row t right of the pivot; column t stays zero
            # below it until a gcd step mixes another column in (dirty)
            dirty = False
            for j in range(t + 1, k):
                e = rt[j]
                if not e:
                    continue
                p0 = rt[t]
                if e % p0 == 0:
                    c = e // p0
                    rt[j] = 0
                    if dirty:
                        for row in a[t + 1:]:
                            row[j] -= c * row[t]
                    vc[j] = [x - c * y for x, y in zip(vc[j], vc[t])]
                else:
                    g, x, y = gcdex(p0, e)
                    p, q = p0 // g, e // g
                    for row in a[t:]:
                        u, w = row[t], row[j]
                        row[t], row[j] = x * u + y * w, p * w - q * u
                    vt, vj = vc[t], vc[j]
                    vc[t] = [x * u + y * w for u, w in zip(vt, vj)]
                    vc[j] = [p * w - q * u for u, w in zip(vt, vj)]
                    dirty = True
            if not dirty:
                break
        diag.append(a[t][t])
    return diag, [row[k:] for row in a], vc


def diagonal(m: IntMatrix) -> tuple[int, ...]:
    """The entries ``m[i][i]``, as many as the shorter side."""
    return tuple(m.entries[i][i] for i in range(min(m.rows, m.cols)))


def kronecker_split_test(s: ShortExactSeq) -> FgHom | None:
    """A section of ``s`` from one integer linear system over every
    section entry at once (the engine's previous split test), or ``None``
    when the sequence does not split.

    The unknowns are the section ``X`` (``nB·nC``), the relation
    coefficients that put ``X·rC`` into the middle term's relations
    (``kB·kC``) and those that make ``surj·X = id`` modulo the right
    term's relations (``kC·nC``).
    """
    nB, nC = s.mid.generators, s.right.generators
    rB, rC = s.mid.relations, s.right.relations
    kB, kC = rB.cols, rC.cols
    mp = s.surj.matrix
    n_x, n_y, n_w = nB * nC, kB * kC, kC * nC
    rows: list[list[int]] = []
    rhs: list[int] = []
    for j in range(kC):
        for i in range(nB):
            row = [0] * (n_x + n_y + n_w)
            for t in range(nC):
                row[i * nC + t] = rC.entries[t][j]
            for u in range(kB):
                row[n_x + u * kC + j] = -rB.entries[i][u]
            rows.append(row)
            rhs.append(0)
    for j in range(nC):
        for i in range(nC):
            row = [0] * (n_x + n_y + n_w)
            for t in range(nB):
                row[t * nC + j] = mp.entries[i][t]
            for u in range(kC):
                row[n_x + n_y + u * nC + j] = -rC.entries[i][u]
            rows.append(row)
            rhs.append(int(i == j))
    sol = solve(IntMatrix.from_rows(rows, cols=n_x + n_y + n_w),
                IntMatrix.from_cols([rhs], rows=len(rhs)))
    if sol is None:
        return None
    sol = sol.col(0)
    x = [[sol[i * nC + t] for t in range(nC)] for i in range(nB)]
    return FgHom(s.right, s.mid, IntMatrix.from_rows(x, cols=nC))


# ---------------------------------------------------------------------------
# Brute-force divisible elements
# ---------------------------------------------------------------------------

def divisible_elements_brute(torsion_factors: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All elements of ``⊕ Z/d`` divisible by every n up to the exponent,
    by exhaustive search over candidates and cofactors."""
    if not torsion_factors:
        return [()]
    exp = lcm(*torsion_factors)
    everyone = list(product(*[range(d) for d in torsion_factors]))
    out = []
    for x in everyone:
        ok = True
        for n in range(1, exp + 1):
            if not any(all((n * h[i] - x[i]) % torsion_factors[i] == 0
                           for i in range(len(x))) for h in everyone):
                ok = False
                break
        if ok:
            out.append(x)
    return sorted(out)


# ---------------------------------------------------------------------------
# Freeness rules by structural recursion over a normal form
# ---------------------------------------------------------------------------

def _tri_or(values) -> bool | None:
    values = list(values)
    if True in values:
        return True
    return None if None in values else False


def torsion_ref(e: GroupExpr) -> bool | None:
    if e in (TRIVIAL, Z, Q, R, ZPROD):
        return False
    if isinstance(e, Cyclic):
        return True
    if isinstance(e, Opaque):
        if e.is_torsionfree is None:
            return False if e.is_free else None
        return not e.is_torsionfree
    if e is UNKNOWN:
        return None
    if isinstance(e, DirectSum):
        return _tri_or(torsion_ref(p) for p in e.parts)
    if isinstance(e, LexTower):
        return _tri_or(torsion_ref(l) for l in e.levels)
    if isinstance(e, Repeated):
        return torsion_ref(e.base)
    raise TypeError(f"unhandled expression {e!r}")


def divisible_ref(e: GroupExpr) -> bool | None:
    if e in (TRIVIAL, Z, ZPROD) or isinstance(e, Cyclic):
        return False
    if e in (Q, R):
        return True
    if isinstance(e, Opaque):
        if e.has_divisible is None:
            return False if e.is_free else None
        return e.has_divisible
    if e is UNKNOWN:
        return None
    if isinstance(e, DirectSum):
        return _tri_or(divisible_ref(p) for p in e.parts)
    if isinstance(e, LexTower):
        return _tri_or(divisible_ref(l) for l in e.levels)
    if isinstance(e, Repeated):
        return divisible_ref(e.base)
    raise TypeError(f"unhandled expression {e!r}")


def derivably_free_ref(e: GroupExpr) -> bool:
    if e in (TRIVIAL, Z):
        return True
    if isinstance(e, Opaque):
        return e.is_free is True
    if isinstance(e, DirectSum):
        return all(derivably_free_ref(p) for p in e.parts)
    if isinstance(e, LexTower):
        return all(derivably_free_ref(l) for l in e.levels)
    if isinstance(e, Repeated):
        return derivably_free_ref(e.base)
    return False


def not_free_summand_ref(e: GroupExpr) -> bool:
    if e is ZPROD:
        return True
    if isinstance(e, Opaque):
        return e.is_free is False
    if isinstance(e, DirectSum):
        return any(not_free_summand_ref(p) for p in e.parts)
    if isinstance(e, LexTower):
        return any(not_free_summand_ref(l) for l in e.levels)
    if isinstance(e, Repeated):
        return not_free_summand_ref(e.base)
    return False


def witness_ref(e: GroupExpr, holds) -> str:
    """Follow the first summand or level where ``holds`` is true down to
    a declared label or an atom."""
    if isinstance(e, Opaque):
        return e.label
    if isinstance(e, Repeated):
        return witness_ref(e.base, holds)
    parts = e.parts if isinstance(e, DirectSum) else \
        e.levels if isinstance(e, LexTower) else ()
    inner = next((p for p in parts if holds(p) is True), None)
    return render_expr(e) if inner is None else witness_ref(inner, holds)


def freeness_verdict_ref(e: GroupExpr) -> Decision:
    """The freeness rule system, rule by rule, on the recursive helpers."""
    e = normalize(e)
    if derivably_free_ref(e):
        return Decision(Verdict.FREE, (
            CertStep.make("sum-of-free",
                          "a direct sum of infinite cyclic and declared-free pieces is free",
                          group=render_expr(e)),), text=render_expr(e))
    if torsion_ref(e) is True:
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("torsion-witness",
                          "a nonzero torsion element survives in every direct-sum "
                          "decomposition, and free groups are torsionfree",
                          witness=witness_ref(e, torsion_ref)),))
    if divisible_ref(e) is True:
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("divisible-witness",
                          "a nonzero element divisible by every integer survives in "
                          "direct summands, and free groups have none",
                          witness=witness_ref(e, divisible_ref)),))
    if e is ZPROD:
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("infinite-product",
                          "the direct product of infinitely many copies of Z is not free"),))
    if not_free_summand_ref(e):
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("not-free-summand",
                          "a direct summand is a subgroup, and subgroups of free "
                          "groups are free (Dedekind), so a sum with a summand that "
                          "is not free is not free",
                          witness=witness_ref(e, not_free_summand_ref)),))
    return Decision(Verdict.UNKNOWN, (
        CertStep.make("no-rule",
                      "no freeness derivation and no unfreeness witness applies",
                      group=render_expr(e)),), text=render_expr(e))


def invariant_factors_ref(e: GroupExpr) -> tuple[int, ...] | None:
    orders: list[int] = []

    def walk(x: GroupExpr, mult: int) -> bool:
        if x is TRIVIAL:
            return True
        if x is Z:
            orders.extend([0] * mult)
            return True
        if isinstance(x, Cyclic):
            orders.extend([x.order] * mult)
            return True
        if isinstance(x, DirectSum):
            return all(walk(p, mult) for p in x.parts)
        if isinstance(x, LexTower):
            return all(walk(l, mult) for l in x.levels)
        if isinstance(x, Repeated):
            return isinstance(x.times, int) and walk(x.base, mult * x.times)
        return False

    return canonical_invariants(orders) if walk(normalize(e), 1) else None


def expr_rank(e: GroupExpr) -> int | None:
    """The free rank of a finitely generated expression, or ``None``."""
    inv = expr_invariant_factors(e)
    if inv is None:
        return None
    return inv.count(0)


# ---------------------------------------------------------------------------
# The witness predicates of the atom walk
# ---------------------------------------------------------------------------

def has_torsion(e: GroupExpr) -> bool | None:
    """Three-valued: does the group contain a nonzero torsion element?
    The per-atom rule of ``freeness_verdict``, over the atom walk."""
    return _tri_or(_atom_torsion(a) for a, _ in _atoms(normalize(e)))


def has_divisible(e: GroupExpr) -> bool | None:
    """Three-valued: does the group contain a nonzero element divisible by
    every positive integer?  The per-atom rule, over the atom walk."""
    return _tri_or(_atom_divisible(a) for a, _ in _atoms(normalize(e)))


# ---------------------------------------------------------------------------
# Normal sums and their text, as first written
# ---------------------------------------------------------------------------

def reference_normal_sum(parts) -> GroupExpr:
    """``valgroup.normal_sum`` as first written: each pair of adjacent
    summands unpacked by ``isinstance``, and their bases compared before
    their counts are tested."""
    flat: list[GroupExpr] = []
    for p in parts:
        if p is TRIVIAL:
            continue
        if isinstance(p, DirectSum):
            flat.extend(p.parts)
        else:
            flat.append(p)
    merged: list[GroupExpr] = []
    for p in flat:
        if merged:
            prev = merged[-1]
            pb, pt = (prev.base, prev.times) if isinstance(prev, Repeated) else (prev, 1)
            cb, ct = (p.base, p.times) if isinstance(p, Repeated) else (p, 1)
            if (pb is cb or pb == cb) and isinstance(pt, int) and isinstance(ct, int):
                merged[-1] = Repeated(pb, pt + ct) if pt + ct > 1 else pb
                continue
        merged.append(p)
    if not merged:
        return TRIVIAL
    if len(merged) == 1:
        return merged[0]
    return DirectSum(tuple(merged))


def _reference_render_item(e: GroupExpr) -> str:
    if type(e) is Atom:
        return e.text
    if isinstance(e, Cyclic):
        return f"Z/{e.order}"
    if isinstance(e, Opaque):
        return _render_flags(e)
    if isinstance(e, LexTower):
        return "lex(" + ";".join(reference_render_normal(l) for l in e.levels) + ")"
    base = e.base
    if isinstance(base, (DirectSum, Repeated, Cyclic)):
        base_txt = "(" + reference_render_normal(base) + ")"
    else:
        base_txt = _reference_render_item(base)
    mult = str(e.times) if isinstance(e.times, int) else f"({e.times})"
    return f"{base_txt}^{mult}"


def reference_render_normal(e: GroupExpr) -> str:
    """``valgroup.render_normal`` as first written: each summand
    dispatched through a chain of ``isinstance`` tests."""
    if isinstance(e, DirectSum):
        return " ⊕ ".join(_reference_render_item(p) for p in e.parts)
    return _reference_render_item(e)


# ---------------------------------------------------------------------------
# The report grammar, parsed back
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(⊕|lex\(|prod\(|opaque\(|\(|\)|;|,|\^|\*|\+|/|=|\?|0|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|\"[^\"]*\")")


def _tokenize(text: str) -> list[str]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SchemaError(f"cannot tokenize group expression at: {text[pos:pos + 20]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self) -> str | None:
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        if self.i >= len(self.toks):
            raise SchemaError("unexpected end of group expression")
        t = self.toks[self.i]
        if expected is not None and t != expected:
            raise SchemaError(f"expected {expected!r}, found {t!r}")
        self.i += 1
        return t

    def parse_sum(self) -> GroupExpr:
        parts = [self.parse_item()]
        while self.peek() == "⊕":
            self.take()
            parts.append(self.parse_item())
        return DirectSum(tuple(parts)) if len(parts) > 1 else parts[0]

    def parse_item(self) -> GroupExpr:
        base = self.parse_base()
        if self.peek() == "^":
            self.take()
            t = self.peek()
            if t == "(":
                self.take()
                chunks = []
                while self.peek() not in (")", None):
                    chunks.append(self.take())
                self.take(")")
                times: int | str = "".join(chunks)
            else:
                times = int(self.take())
            return Repeated(base, times)
        return base

    def parse_base(self) -> GroupExpr:
        t = self.take()
        if t == "0":
            return TRIVIAL
        if t == "Z":
            if self.peek() == "/":
                self.take()
                return Cyclic(int(self.take()))
            return Z
        if t == "Q":
            return Q
        if t == "R":
            return R
        if t == "?":
            return UNKNOWN
        if t == "(":
            inner = self.parse_sum()
            self.take(")")
            return inner
        if t == "lex(":
            levels = [self.parse_sum()]
            while self.peek() == ";":
                self.take()
                levels.append(self.parse_sum())
            self.take(")")
            return LexTower(tuple(levels))
        if t == "prod(":
            self.take("Z")
            self.take(";")
            self.take("w")
            self.take(")")
            return ZPROD
        if t == "opaque(":
            label_tok = self.take()
            if not (label_tok.startswith('"') and label_tok.endswith('"')):
                raise SchemaError("opaque label must be quoted")
            kwargs: dict[str, bool | None] = {}
            while self.peek() == ",":
                self.take()
                key = self.take()
                self.take("=")
                val = self.take()
                if val not in ("yes", "no"):
                    raise SchemaError(f"flag value must be yes/no, found {val!r}")
                name = {"free": "is_free", "torsionfree": "is_torsionfree",
                        "divisible": "has_divisible"}.get(key)
                if name is None:
                    raise SchemaError(f"unknown opaque flag {key!r}")
                kwargs[name] = val == "yes"
            self.take(")")
            return Opaque(label_tok[1:-1], **kwargs)
        raise SchemaError(f"unexpected token {t!r} in group expression")


def parse_expr(text: str) -> GroupExpr:
    """Parse the canonical expression grammar back into a normalized tree."""
    p = _Parser(_tokenize(text))
    e = p.parse_sum()
    if p.peek() is not None:
        raise SchemaError(f"trailing tokens in group expression: {p.toks[p.i:]}")
    return normalize(e)


# ---------------------------------------------------------------------------
# Group-based diagram predicates (the engine's previous paths)
# ---------------------------------------------------------------------------

def kernel(h: FgHom) -> FgGroup:
    """The kernel of ``h``, presented as a group of its own."""
    return kernel_with_inclusion(h)[0]


def is_trivial(g: FgGroup) -> bool:
    return not g.invariant_factors


def reference_lattices(h: FgHom) -> tuple[IntMatrix, IntMatrix]:
    """The image and kernel lattices of ``h`` by the engine's former
    route, two eliminations apart: the image is the column HNF of
    ``[M | R_T]``; the kernel projects the integer kernel of ``[M | R_T]``
    (the columns of ``V`` past the rank in a diagonal form ``U·[M | R_T]·V``)
    onto the source coordinates, adds the source relations and brings
    the sum to HNF."""
    onto = hstack(h.matrix, h.target.relations)
    diag, _, vc = _diagonal_form(onto)
    proj = IntMatrix.from_cols([col[:h.source.generators] for col in vc[len(diag):]],
                               rows=h.source.generators)
    return column_hnf(onto), column_hnf(hstack(proj, h.source.relations))


def lattice_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """Do the columns of ``a`` and ``b`` span the same lattice?  Both are
    brought to column HNF, so neither needs to be one already."""
    if a.rows != b.rows:
        return False
    return column_hnf(a).entries == column_hnf(b).entries


# ---------------------------------------------------------------------------
# Direct-sum and sub-quotient sequences
# ---------------------------------------------------------------------------

def ds_inclusion(groups: list[FgGroup], i: int) -> FgHom:
    total = direct_sum(groups)
    off = sum(g.generators for g in groups[:i])
    rows = []
    for r in range(total.generators):
        row = [0] * groups[i].generators
        if off <= r < off + groups[i].generators:
            row[r - off] = 1
        rows.append(row)
    return FgHom(groups[i], total, IntMatrix.from_rows(rows, cols=groups[i].generators))


def ds_projection(groups: list[FgGroup], i: int) -> FgHom:
    total = direct_sum(groups)
    off = sum(g.generators for g in groups[:i])
    rows = []
    for r in range(groups[i].generators):
        row = [0] * total.generators
        row[off + r] = 1
        rows.append(row)
    return FgHom(total, groups[i], IntMatrix.from_rows(rows, cols=total.generators))


def checked_sequence(left: FgGroup, mid: FgGroup, right: FgGroup,
                     inj: FgHom, surj: FgHom) -> ShortExactSeq:
    """The sequence, checked as the parse checks one read from a file:
    each map well defined, then exactness.  ``FgHom`` and
    ``ShortExactSeq`` check nothing when built, so the builders of test
    sequences here check what they build."""
    s = ShortExactSeq(left, mid, right, inj, surj)
    FgHom.__post_init__(inj)
    FgHom.__post_init__(surj)
    ShortExactSeq.__post_init__(s)
    return s


def of_direct_sum(left: FgGroup, right: FgGroup) -> ShortExactSeq:
    """The split sequence ``0 → left → left ⊕ right → right → 0``."""
    return checked_sequence(left, direct_sum([left, right]), right,
                            ds_inclusion([left, right], 0),
                            ds_projection([left, right], 1))


def sub_quotient_sequence(mid: FgGroup, sub_basis: IntMatrix) -> ShortExactSeq:
    """The sequence ``0 → L/rel → mid → mid/L → 0`` for a lattice ``L``
    (given by generating columns) containing the relation lattice."""
    basis = column_hnf(hstack(sub_basis, mid.relations) if mid.relations.cols else sub_basis)
    sub, incl = _sublattice_group(mid, basis)
    quot = FgGroup(mid.generators,
                   hstack(basis, mid.relations) if mid.relations.cols else basis)
    proj = FgHom(mid, quot, IntMatrix.identity(mid.generators))
    return checked_sequence(sub, mid, quot, incl, proj)


# ---------------------------------------------------------------------------
# Random exact ladders for the snake lemma
# ---------------------------------------------------------------------------

def random_matrix(rng: random.Random, rows: int, cols: int, bound: int) -> IntMatrix:
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def random_row(rng: random.Random, n: int):
    """An exact sequence 0 -> L/rel -> Z^n/rel -> Z^n/L -> 0 built from a
    random relation lattice and a random larger lattice."""
    rel = random_matrix(rng, n, rng.randint(0, 2), 3)
    extra = random_matrix(rng, n, rng.randint(1, 2), 3)
    sub_gens = hstack(rel, extra) if rel.cols else extra
    mid = FgGroup(n, rel)
    return sub_quotient_sequence(mid, sub_gens), mid, sub_gens


def random_snake_input(rng: random.Random):
    n1 = rng.randint(1, 3)
    n2 = rng.randint(1, 3)
    rel1 = random_matrix(rng, n1, rng.randint(0, 2), 3)
    extra1 = random_matrix(rng, n1, rng.randint(1, 2), 3)
    sub1 = hstack(rel1, extra1) if rel1.cols else extra1
    b1 = FgGroup(n1, rel1)
    top = sub_quotient_sequence(b1, sub1)

    mg = random_matrix(rng, n2, n1, 2)
    rel2_rand = random_matrix(rng, n2, rng.randint(0, 2), 3)
    mapped_rel = mg @ rel1 if rel1.cols else IntMatrix.zeros(n2, 0)
    rel2 = hstack(rel2_rand, mapped_rel) if rel2_rand.cols or mapped_rel.cols \
        else IntMatrix.zeros(n2, 0)
    b2 = FgGroup(n2, rel2)
    extra2 = random_matrix(rng, n2, rng.randint(0, 1), 3)
    parts2 = [m for m in (rel2, mg @ sub1, extra2) if m.cols]
    sub2 = hstack(*parts2) if parts2 else IntMatrix.zeros(n2, 0)
    # the bottom sub-lattice must be a genuine lattice: ensure at least one column
    if sub2.cols == 0:
        sub2 = random_matrix(rng, n2, 1, 3)
    bottom = sub_quotient_sequence(b2, sub2)

    g = FgHom(b1, b2, mg)
    f = factor_through(top.inj.source, mg @ top.inj.matrix, bottom.inj)
    h = FgHom(top.right, bottom.right, mg)
    return top, bottom, f, g, h


# ---------------------------------------------------------------------------
# Random certified amalgam parts
# ---------------------------------------------------------------------------

def random_invariants(rng: random.Random, max_rank: int = 3,
                      max_order: int = 6) -> tuple[int, ...]:
    out = []
    for _ in range(rng.randint(0, max_rank)):
        out.append(rng.choice([0, 0] + list(range(2, max_order + 1))))
    return tuple(out)


def random_unimodular_with_inverse(rng: random.Random, n: int,
                                   steps: int = 4) -> tuple[IntMatrix, IntMatrix]:
    w = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    winv = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        if n < 2:
            break
        i, j = rng.sample(range(n), 2)
        c = rng.randint(-2, 2)
        # w <- E w  (row op), winv <- winv E^{-1} (column op)
        for t in range(n):
            w[i][t] += c * w[j][t]
        for t in range(n):
            winv[t][j] -= c * winv[t][i]
    return (IntMatrix.from_rows(w, cols=n), IntMatrix.from_rows(winv, cols=n))


def random_amalgam_instance(rng: random.Random, n_parts: int):
    g = FgGroup.from_invariants(*random_invariants(rng))
    parts = []
    expected = []
    for _ in range(n_parts):
        b = FgGroup.from_invariants(*random_invariants(rng))
        expected.append(b)
        pair = [b, g]
        a0 = direct_sum(pair)
        emb0 = ds_inclusion(pair, 1)
        proj0 = ds_projection(pair, 0)
        ret0 = ds_projection(pair, 1)
        w, winv = random_unimodular_with_inverse(rng, a0.generators)
        a = FgGroup(a0.generators, w @ a0.relations)
        parts.append(AmalgamPart(
            group=a,
            emb=FgHom(g, a, w @ emb0.matrix),
            complement=b,
            proj=FgHom(a, b, proj0.matrix @ winv),
            retract=FgHom(a, g, ret0.matrix @ winv)))
    expected.extend([g] * (n_parts - 1))
    return g, parts, direct_sum(expected)


def cyclic_amalgam_parts(m: int, orders: list[int]) -> tuple[FgGroup, list[AmalgamPart]]:
    """Hand-built certified parts of ``(⊕ Z/n_i)/Z/m``, the several-branch
    unit quotient of finite fields with ``U(k) = Z/m`` and ``U(L_i) = Z/n_i``,
    when every ``gcd(m, n_i/m) = 1``: each part is the internal
    decomposition ``Z/n = Z/(n/m) ⊕ Z/m`` (just ``Z/m`` when ``n = m``),
    with complement ``Z/(n/m)`` and the diagonal ``Z/m`` the last summand."""
    g = FgGroup.cyclic(m)
    parts = []
    for n in orders:
        assert gcd(m, n // m) == 1, "residue units are not a summand"
        grp = FgGroup.from_invariants(n // m, m) if n > m else FgGroup.cyclic(m)
        comp = FgGroup.cyclic(n // m)
        emb = FgHom(g, grp, IntMatrix.from_rows([[0], [1]] if n > m else [[1]], cols=1))
        proj = FgHom(grp, comp, IntMatrix.from_rows([[1, 0]] if n > m else [[0]],
                                                    cols=grp.generators))
        retract = FgHom(grp, g, IntMatrix.from_rows([[0, 1]] if n > m else [[1]],
                                                   cols=grp.generators))
        parts.append(AmalgamPart(grp, emb, comp, proj, retract))
    return g, parts


# ---------------------------------------------------------------------------
# The ladder and amalgam decisions as first written
# ---------------------------------------------------------------------------

def reference_amalgam_quotient(g: FgGroup, parts: list[AmalgamPart]) -> tuple[FgGroup, FgGroup]:
    """The quotient of ``⊕ A_i`` by the diagonal copy of ``G``, presented
    as the cokernel of the diagonal map, and its standard form, after each
    part's checks in their first order (injectivity first) and the two
    lattice tests of ``ψ``."""
    n = len(parts)
    for idx, p in enumerate(parts):
        if not injective(p.emb, lattices(p.emb)):
            raise DiagramError(f"part {idx}: embedding is not injective")
        if not g.congruent(p.retract.matrix @ p.emb.matrix, IntMatrix.identity(g.generators)):
            raise DiagramError(f"part {idx}: retraction is not a left inverse of the embedding")
        if not p.proj.target.congruent(p.proj.matrix @ p.emb.matrix,
                                       IntMatrix.zeros(p.proj.target.generators, g.generators)):
            raise DiagramError(f"part {idx}: projection does not kill the embedded copy")
        combined = FgHom(p.group, direct_sum([p.complement, g]),
                         vstack(p.proj.matrix, p.retract.matrix))
        if not is_isomorphism(combined):
            raise DiagramError(f"part {idx}: (projection, retraction) is not an "
                               "internal direct-sum decomposition")
    total = direct_sum([p.group for p in parts])
    phi = FgHom(g, total, vstack(*[p.emb.matrix for p in parts]))
    target = direct_sum([p.complement for p in parts] + [g] * (n - 1))
    m = block_diag(*[p.proj.matrix for p in parts])
    if n > 1:
        last = -parts[-1].retract.matrix
        m = vstack(m, hstack(block_diag(*[p.retract.matrix for p in parts[:-1]]),
                             vstack(*[last] * (n - 1))))
    psi = FgHom(total, target, m)
    onto = lattices(psi)
    if lattices(phi).image.entries != onto.kernel.entries:
        raise DiagramError("amalgam map has the wrong kernel")
    if not surjective(psi, onto):
        raise DiagramError("amalgam map is not surjective")
    return cokernel(phi), target


def reference_decide_diagram(check: str, *parsed) -> Decision:
    """``decide_diagram`` on a ``snake`` or ``amalgam`` diagram as first
    written: the ladder's six terms read off the whole six-term sequence,
    maps included, and the amalgam's quotient presented as a cokernel and
    brought to invariant factors, with its text rendered as the report
    renders it."""
    if check == "snake":
        groups = snake(*parsed)[:6]
        terms = [grp.describe() for grp in groups]
        cert = (CertStep.make(
            "six-term-exact",
            "the kernel-cokernel sequence of the ladder is exact at every "
            "position",
            terms=" | ".join(terms)),)
        free = all(is_free(grp) for grp in groups)
        return Decision(Verdict.FREE if free else Verdict.NOT_FREE, cert, None,
                        {"six_terms": terms})
    quotient, standard_form = reference_amalgam_quotient(*parsed)
    cert = (CertStep.make(
        "units-amalgam",
        "the quotient of the sum by the diagonal copy is isomorphic to the "
        "complements plus one fewer copies of the diagonal group; the "
        "isomorphism was constructed and verified",
        quotient=quotient.describe(),
        standard_form=standard_form.describe()),)
    return Decision(Verdict.FREE if is_free(quotient) else Verdict.NOT_FREE, cert,
                    quotient.to_expr(), {}, render_normal(quotient.to_expr()))


# ---------------------------------------------------------------------------
# Random and exhaustive spectral trees
# ---------------------------------------------------------------------------

def walked_tree(root: PrimeNode) -> SpecTree:
    """The ``SpecTree`` of a hand-built root, indexed by walking it: the
    reference for the index that ``tree_from_payload`` and
    ``contracted_spectrum`` fill while they build their nodes."""
    parents: dict[str, PrimeNode | None] = {root.node_id: None}
    order: list[PrimeNode] = []
    stack = [root]
    while stack:
        n = stack.pop()
        order.append(n)
        for c in n.children:
            parents[c.node_id] = n
        stack.extend(reversed(n.children))
    return SpecTree(root, tuple(order), parents)


def random_tree(rng: random.Random, max_depth: int = 4, max_nodes: int = 12,
                q_prob: float = 0.0, multi_slot_prob: float = 0.2) -> SpecTree:
    counter = [0]
    budget = [rng.randint(2, max_nodes)]

    def label() -> ValueTower:
        n_slots = 2 if rng.random() < multi_slot_prob else 1
        names = ["Q" if rng.random() < q_prob else "Z" for _ in range(n_slots)]
        return ValueTower.from_names(names)

    def grow(depth: int) -> PrimeNode:
        counter[0] += 1
        budget[0] -= 1
        my_id = f"n{counter[0]}"
        children = []
        if depth < max_depth:
            want = rng.choice([0, 0, 1, 1, 2, 3])
            for _ in range(want):
                if budget[0] <= 0:
                    break
                children.append(grow(depth + 1))
        return PrimeNode(my_id, label(), tuple(children))

    kids = []
    for _ in range(rng.randint(1, 3)):
        if budget[0] <= 0:
            break
        kids.append(grow(1))
    if not kids:
        kids = [grow(1)]
    return walked_tree(PrimeNode("0", None, tuple(kids)))


def permuted_tree(rng: random.Random, tree: SpecTree) -> SpecTree:
    def shuffle(node: PrimeNode) -> PrimeNode:
        kids = [shuffle(c) for c in node.children]
        rng.shuffle(kids)
        return PrimeNode(node.node_id, node.label, tuple(kids), node.branched)
    return walked_tree(shuffle(tree.root))


def all_parent_vectors(n: int):
    """Every rooted tree on nodes 0..n-1 (0 the root) as a parent vector."""
    if n == 1:
        yield []
        return
    for parents in product(*[range(i) for i in range(1, n)]):
        yield list(parents)


def tree_from_parents(parents: list[int]) -> SpecTree:
    n = len(parents) + 1
    children: dict[int, list[int]] = {i: [] for i in range(n)}
    for child, parent in enumerate(parents, start=1):
        children[parent].append(child)
    z = ValueTower.from_names(["Z"])

    def build(i: int) -> PrimeNode:
        return PrimeNode(str(i), None if i == 0 else z,
                         tuple(build(c) for c in children[i]))

    return walked_tree(build(0))


def tree_payload(parents: list[int]) -> dict:
    """The ``prufer_tree`` instance of ``tree_from_parents(parents)``,
    nested without recursion, so that deep trees can be written."""
    nodes = [{"id": "0"}] + [{"id": str(i), "label": ["Z"]}
                             for i in range(1, len(parents) + 1)]
    for child, parent in enumerate(parents, start=1):
        nodes[parent].setdefault("children", []).append(nodes[child])
    return {"v": 1, "kind": "prufer_tree", "root": nodes[0]}


def caterpillar_payload(spine, heavy=("Z", "Z")):
    """A spine of ``spine`` primes, one leaf on each and two on the last;
    the edge of every fourth leaf is labelled ``heavy``."""
    parents, prev = [], 0
    for _ in range(spine):
        parents += [prev, len(parents) + 1]
        prev = len(parents) - 1
    parents.append(prev)
    payload = tree_payload(parents)
    stack = [payload["root"]]
    while stack:
        node = stack.pop()
        # the leaf of the i-th spine prime is node 2i
        if node["id"] != "0" and int(node["id"]) % 8 == 0:
            node["label"] = list(heavy)
        stack.extend(node.get("children", ()))
    return payload


def standard_decomposition(tree: SpecTree) -> list[SpecTree]:
    """One subtree per dependency class of maximal ideals: two maximal
    ideals are dependent when their root paths share a nonzero prime,
    i.e. when they lie in the same child subtree of the root.  Each class
    is re-rooted at a fresh zero ideal."""
    return [walked_tree(PrimeNode(tree.root.node_id, None, (child,)))
            for child in tree.root.children]


def slot_names(tower: ValueTower) -> list[str]:
    # the canonical rendering of Z, Q and R is their schema name
    return [render_expr(s) for s in tower]


def tree_rank_oracle(tree: SpecTree) -> int:
    """Total free rank of the invertible group of an all-Z tree, by direct
    structural recursion: each edge contributes its slot count."""
    def rec(node: PrimeNode) -> int:
        total = 0
        for c in node.children:
            total += len(c.label) + rec(c)
        return total
    return rec(tree.root)


# ---------------------------------------------------------------------------
# The invertible decision of a tree, as first written
# ---------------------------------------------------------------------------

def _reference_decompose(tree: SpecTree) -> tuple[GroupExpr, list[CertStep], list[DividedCut]]:
    """``prufer._decompose`` as first written: the stack holds subproblems
    (sub-root, kept nodes), a dependency class is a subproblem of its own,
    and every value group is measured through ``_tower_below``.  The sum
    and its text are the references as first written."""
    steps: list[CertStep] = []
    cuts: list[DividedCut | None] = []
    summands: list[GroupExpr] = []
    towers: dict[tuple, tuple[GroupExpr, str, int | None]] = {}
    ranks: list[list[int | None]] = [[]]
    todo: list[tuple] = [(tree.root, tree.root.children)]
    while todo:
        top = todo.pop()
        if len(top) == 4:
            at, prime, tower_expr, rank = top
            parts = ranks.pop()
            quotient = None if None in parts else sum(parts)
            cuts[at] = DividedCut(prime, quotient, rank)
            summands.append(tower_expr)
            ranks[-1] += (quotient, rank)
            continue
        sub_root, kids = top
        if not kids:
            steps.append(CertStep.make("field-trivial", "a field has trivial ideal groups"))
            continue
        if len(kids) > 1:
            steps.append(CertStep(*_CLASS_SUM, (("classes", str(len(kids))),)))
            todo.extend((sub_root, (c,)) for c in reversed(kids))
            continue
        node = kids[0]
        if len(node.children) == 1:
            todo.append((sub_root, node.children))
            continue
        slots = _tower_below(tree, node, sub_root)
        if slots not in towers:
            tower_expr = slots[0] if len(slots) == 1 else LexTower(slots)
            towers[slots] = (tower_expr, reference_render_normal(tower_expr),
                             len(slots) if slots.count(Z) == len(slots) else None)
        tower_expr, text, rank = towers[slots]
        if not node.children:
            steps.append(CertStep(*_VALUATION_INV_ISO,
                                  (("maximal", node.node_id), ("value_group", text))))
            summands.append(tower_expr)
            ranks[-1].append(rank)
            continue
        steps.append(CertStep(*_DIVIDED_CUT, (("prime", node.node_id), ("value_group", text))))
        ranks.append([])
        todo.append((len(cuts), node.node_id, tower_expr, rank))
        cuts.append(None)
        todo.append((node, node.children))
    return reference_normal_sum(summands), steps, cuts


def reference_decide_inv_free(tree: SpecTree) -> InvDecision:
    """``prufer.decide_inv_free`` as first written: the leaves are one
    ``tree.leaves()`` pass, and the first non-free one is a second scan
    after the decomposition."""
    free = _free_at(tree)
    gate_cert = _internal_gate(tree, free)
    if gate_cert:
        return InvDecision(Verdict.UNKNOWN, gate_cert, UNKNOWN)
    leaves = tree.leaves()
    expr, steps, cuts = _reference_decompose(tree)
    bad = next((leaf for leaf in leaves if not free[leaf.node_id]), None)
    if bad is not None:
        fv = freeness_verdict(gamma_at(tree, bad).to_expr())
        steps = steps + [CertStep.make(
            "leaf-gamma-not-free",
            "the decomposition shows the invertible group is free exactly "
            "when all maximal value groups are; this one is not",
            maximal=bad.node_id)] + list(fv.certificate)
        verdict = Verdict.NOT_FREE
    else:
        steps = steps + [CertStep.make(
            "all-leaf-gammas-free",
            "every maximal ideal's value group is free, so the decomposition "
            "exhibits the invertible group as a direct sum of free groups",
            leaves=len(leaves))]
        verdict = Verdict.FREE
    return InvDecision(verdict, tuple(steps), expr, cuts=tuple(cuts))


# ---------------------------------------------------------------------------
# Ordinals: order and products by dense coefficients, derived-set bounds
# by brute force
# ---------------------------------------------------------------------------

def dense_coefficients(a: Ordinal, top: int) -> tuple[int, ...]:
    """The coefficients of ``w^top, ..., w^1, w^0`` in ``a``, zeros
    included; for ordinals below ``w^(top+1)`` the lexicographic order of
    these vectors is the ordinal order."""
    coeff = dict(a)
    return tuple(coeff.get(e, 0) for e in range(top, -1, -1))


def times_omega(a: Ordinal) -> Ordinal:
    """Left product ``w * a``: shift every exponent up by one (the finite
    part is absorbed: ``w*c = w`` for finite ``c > 0``)."""
    return Ordinal((e + 1, c) for e, c in a)


def ordinal_grid(max_exp: int, max_coeff: int):
    """All normal forms with exponents <= max_exp and coefficients
    <= max_coeff (possibly absent)."""
    out = []
    choices = [range(0, max_coeff + 1) for _ in range(max_exp + 1)]
    for coeffs in product(*choices):
        terms = tuple((e, c) for e, c in zip(range(max_exp, -1, -1), coeffs) if c)
        out.append(Ordinal(terms))
    return out


def derived_bound_oracle(bound: Ordinal) -> Ordinal | None:
    """The bound of the derived interval, via the characterization of the
    limit points of [0, a] as the multiples of w in the interval: search
    the largest b with w*b <= a over a grid that surely contains it."""
    max_exp = bound.leading_exponent()
    max_coeff = max((c for _, c in bound), default=0)
    best = Ordinal.zero()
    for cand in ordinal_grid(max_exp, max_coeff):
        if times_omega(cand) <= bound and best < cand:
            best = cand
    if best.is_zero():
        return None
    if best.is_finite():
        return Ordinal.from_int(best.as_int() - 1)
    return best


def reference_scattered_expr(s: ScatteredSpace) -> GroupExpr:
    """The group expression of ``decide_scattered`` as it was first built:
    one ``Repeated`` per stratum, the stratum's tower repeated by its
    multiplicity, and the whole sum normalized again (``valgroup.direct_sum``)."""
    return normalize(DirectSum(tuple(Repeated(t.to_expr(), stratum_multiplicity(s.bound, k))
                                     for k, t in enumerate(s.labels))))


# ---------------------------------------------------------------------------
# Dense instances of the integer engine's growth tests
# ---------------------------------------------------------------------------

def dense_group_payload(n: int, seed: int, bound: int = 3) -> dict:
    """A ``group`` instance with ``n`` generators and ``n`` relators, the
    columns of a matrix drawn row by row from ``[-bound, bound]``."""
    m = random_matrix(random.Random(seed), n, n, bound)
    return {"v": 1, "kind": "group_diagram", "name": f"dense-group-{n}-seed-{seed}",
            "check": "group",
            "group": {"generators": n, "relators": [list(m.col(j)) for j in range(n)]}}


def dense_ses_payload(n: int, seed: int, bound: int = 3) -> dict:
    """The split sequence ``0 → A → A ⊕ Z → Z → 0`` with ``A`` the group
    of ``dense_group_payload(n, seed, bound)``: ``n + 1`` generators in
    the middle."""
    left = dense_group_payload(n, seed, bound)["group"]
    mid = {"generators": n + 1, "relators": [r + [0] for r in left["relators"]]}
    inj = [[int(i == j) for j in range(n)] for i in range(n + 1)]
    return {"v": 1, "kind": "group_diagram", "name": f"dense-ses-{n + 1}-seed-{seed}",
            "check": "ses",
            "ses": {"left": left, "mid": mid, "right": {"generators": 1, "relators": []},
                    "inj": inj, "surj": [[0] * n + [1]]}}


def _group_record(g: FgGroup) -> dict:
    return {"generators": g.generators,
            "relators": [list(g.relations.col(j)) for j in range(g.relations.cols)]}


def amalgam_payload(parts: int, seed: int) -> dict:
    """An ``amalgam`` instance of ``parts`` parts, drawn by
    ``random_amalgam_instance`` from ``random.Random(seed)``."""
    g, drawn, _ = random_amalgam_instance(random.Random(seed), parts)
    return {"v": 1, "kind": "group_diagram", "name": f"amalgam-{parts}-seed-{seed}",
            "check": "amalgam",
            "amalgam": {"g": _group_record(g), "parts": [
                {"group": _group_record(p.group), "complement": _group_record(p.complement),
                 **{key: [list(row) for row in getattr(p, key).matrix.entries]
                    for key in ("emb", "proj", "retract")}}
                for p in drawn]}}


# ---------------------------------------------------------------------------
# The command line's former argparse parser
# ---------------------------------------------------------------------------

def reference_parser() -> argparse.ArgumentParser:
    """The parser that ``igl`` built before ``cli.COMMANDS``, less the
    handler each subparser set: ``parse_args`` gives ``command``, ``path``
    (not for ``selftest``), ``format`` (not for ``expr``) and ``trace``
    (``decide`` only), prints help and exits 0, or exits 2."""
    parser = argparse.ArgumentParser(
        prog="igl",
        description="decide freeness of ideal groups from symbolic instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p_decide = sub.add_parser("decide", help="decide an instance file or directory")
    p_decide.add_argument("path")
    p_decide.add_argument("--format", choices=("human", "json"), default="human")
    p_decide.add_argument("--trace", choices=("rules", "full"), default="rules")

    p_expr = sub.add_parser("expr", help="print the group expression of an instance")
    p_expr.add_argument("path")

    p_verify = sub.add_parser("verify", help="replay finitely generated sub-claims")
    p_verify.add_argument("path")
    p_verify.add_argument("--format", choices=("human", "json"), default="human")

    p_self = sub.add_parser("selftest", help="run the built-in corpus")
    p_self.add_argument("--format", choices=("human", "json"), default="human")
    return parser


# arguments after the command: paths that look like options and paths
# that do not, each option spelled in full, with ``=`` and by a prefix,
# good and bad values, and unknown or misplaced words
ARGV_WORDS = ["x.json", "-x.json", "-1", "-", "", "a b.json", "--", "-h", "--help", "--he",
              "-hh", "--help=x", "--format", "--form", "--f", "--format=json", "--fo=human",
              "--format=", "json", "human", "xml", "--trace", "--t", "--trace=full",
              "--tr=rules", "full", "rules", "--bogus", "-f", "--formatx", "decide", "bogus"]


def argv_grid() -> list[list[str]]:
    """The argv that ``tests/test_cli.py`` reads against
    ``reference_parser`` and ``scripts/line_reach.py`` runs: a few whole
    argv, then each command alone, with one word of ``ARGV_WORDS``, with
    two, and with one between ``x.json`` and ``json``."""
    grid = [[], ["-h"], ["--help"], ["--he"], ["-hh"], ["--help=x"], ["bogus"],
            ["bogus", "x.json"], ["--bogus"], ["--bogus", "decide", "x.json"],
            ["--bogus", "decide", "-h"], ["-h", "bogus"], ["--format", "json", "selftest"],
            ["decide", "--=x"], ["decide", "x.json", "--=x"], ["expr", "--=x"],
            ["decide", "x.json", "--format", "json", "--trace", "full", "--format", "human"],
            ["decide", "--format", "json", "--", "-x.json"], ["decide", "--", "--"],
            ["decide", "x.json", "--trace", "full", "--"]]
    for command in ("decide", "expr", "verify", "selftest"):
        grid.append([command])
        for w in ARGV_WORDS:
            grid.append([command, w])
            grid += ([command, w, v] for v in ARGV_WORDS)
            grid.append([command, "x.json", w, "json"])
    return grid
