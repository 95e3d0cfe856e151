"""Exact integer matrix arithmetic and normal forms.

Everything in this module works with arbitrary-precision Python integers;
no floating point is ever involved and no overflow can occur.  The module
provides

* ``IntMatrix``       -- an immutable row-major integer matrix, with
                         products and negation but no sums,
* ``snf``             -- Smith normal form with unimodular transforms
                         (no runtime caller: invariant factors are read
                         off a diagonal form of the core's column HNF),
* ``unit_core``       -- the cokernel-preserving core left once the
                         ``±1`` pivots are eliminated, with no transforms,
* ``column_hnf``      -- the canonical column-style Hermite normal form,
                         used as the canonical basis of a column lattice,
* ``diagonal_basis``  -- a change of basis that makes a relation lattice
                         diagonal, so a cokernel splits into cyclic factors,
* ``kernel_basis``    -- a basis of the integer kernel of a matrix (no
                         runtime caller: ``abelian.lattices`` reads a
                         map's kernel lattice off one column HNF),
* ``solve``           -- a particular integer solution ``X`` of ``A X = B``,
* ``lattice_solve``   -- coordinates of a vector in an HNF lattice basis.

``snf``, ``diagonal_basis``, ``kernel_basis`` and ``solve`` share one
diagonal elimination; at run time only ``diagonal_basis``, ``solve``
and the invariant factors of a group use it.  It builds the column
transform ``V`` and carries a right-hand-side matrix as extra columns
through its row operations: ``solve`` carries ``B``, all of its columns
at once, and ``snf`` carries the identity, whose rows come back as
``U``.  Only ``snf`` then forces
the divisibility chain, by gcd/lcm steps on pairs of diagonal entries
with Bezout transforms (Kannan-Bachem 1979).

The eliminations themselves form no Bezout combination: ``column_hnf``
and the diagonal elimination reduce entries to floor-division
remainders against the smallest nonzero one (remainder pivoting), which
keeps intermediate entries far smaller.

Lattices (subgroups of Z^n) are always represented by the columns of a
matrix; two generating matrices span the same lattice exactly when their
column HNFs coincide, which is how all lattice comparisons are done.

No function checks the shapes it is given: every matrix is built either
by the parse, which fixes its shape, or by the engine from such matrices.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain
from operator import mul


def gcdex(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: return ``(g, x, y)`` with ``g = x*a + y*b`` and ``g >= 0``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


class IntMatrix(namedtuple("IntMatrix", "rows cols entries")):
    """An immutable integer matrix with explicit row and column counts.

    ``entries`` is a tuple of row tuples.  Zero-row and zero-column
    matrices are legal (and common: a free group has a relation matrix
    with zero columns), which is why the dimensions are stored explicitly.
    """

    __slots__ = ()

    @classmethod
    def from_rows(cls, rows: list[list[int]], cols: int | None = None) -> "IntMatrix":
        r = len(rows)
        if cols is None:
            cols = len(rows[0]) if rows else 0
        return cls(r, cols, tuple(map(tuple, rows)))

    @classmethod
    def from_cols(cls, cols: list[list[int]], rows: int) -> "IntMatrix":
        return cls(rows, len(cols), tuple(zip(*cols)) if cols else ((),) * rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple((0,) * i + (1,) + (0,) * (n - i - 1) for i in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, tuple((0,) * cols for _ in range(rows)))

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(zip(*self.entries)) if self.rows else ((),) * self.cols)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        ot = other.transpose().entries
        return IntMatrix(self.rows, other.cols,
                         tuple(tuple(sum(map(mul, row, col)) for col in ot)
                               for row in self.entries))

    def apply(self, vec: tuple[int, ...] | list[int]) -> tuple[int, ...]:
        return tuple(sum(map(mul, row, vec)) for row in self.entries)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols,
                         tuple(tuple(-a for a in row) for row in self.entries))

    def det(self) -> int:
        """Determinant by the Bareiss fraction-free algorithm (exact)."""
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = [list(row) for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]


def hstack(*ms: IntMatrix) -> IntMatrix:
    """The blocks side by side.  Zero-column blocks drop out, and a sole
    remaining block is returned as it is."""
    rows = ms[0].rows
    ms = tuple(m for m in ms if m.cols)
    if len(ms) < 2:
        return ms[0] if ms else IntMatrix.zeros(rows, 0)
    return IntMatrix(rows, sum(m.cols for m in ms),
                     tuple(tuple(chain(*parts)) for parts in zip(*(m.entries for m in ms))))


def vstack(*ms: IntMatrix) -> IntMatrix:
    return IntMatrix(sum(m.rows for m in ms), ms[0].cols,
                     tuple(row for m in ms for row in m.entries))


def block_diag(*ms: IntMatrix) -> IntMatrix:
    rows = sum(m.rows for m in ms)
    cols = sum(m.cols for m in ms)
    out = [[0] * cols for _ in range(rows)]
    r0 = c0 = 0
    for m in ms:
        for i in range(m.rows):
            out[r0 + i][c0:c0 + m.cols] = list(m.entries[i])
        r0 += m.rows
        c0 += m.cols
    return IntMatrix.from_rows(out, cols=cols)


# ---------------------------------------------------------------------------
# Unit pivots
# ---------------------------------------------------------------------------

def unit_core(m: IntMatrix) -> tuple[int, IntMatrix]:
    """Eliminate the unit pivots of ``m`` with no transforms.

    Repeatedly takes the first ``±1`` entry in row-major order, clears its
    column in the other rows with whole-row updates and deletes its row
    and column (Havas-Holt-Rees, *Recognizing badly presented Z-modules*,
    1993).  Returns ``(units, core)``: each removed pivot is an invariant
    factor 1 and ``coker m ≅ coker core``, so the Smith form of ``m`` is
    ``units`` ones followed by the Smith form of ``core``.
    """
    a = [list(row) for row in m.entries]
    units = 0
    while True:
        piv = None
        for i in range(len(a)):
            row = a[i]
            js = [row.index(e) for e in (1, -1) if e in row]
            if js:
                piv = i, min(js)
                break
        if piv is None:
            break
        i, j = piv
        p = a.pop(i)
        s = p[j]
        nz = [(t, y) for t, y in enumerate(p) if y]
        for row in a:
            c = row[j] * s
            if c:
                for t, y in nz:
                    row[t] -= c * y
            del row[j]
        units += 1
    return units, IntMatrix(len(a), m.cols - units, tuple(map(tuple, a)))


# ---------------------------------------------------------------------------
# Hermite normal form (column style) and lattice computations
# ---------------------------------------------------------------------------

def column_hnf(m: IntMatrix) -> IntMatrix:
    """Canonical column HNF of the lattice spanned by the columns of ``m``.

    The result has one column per lattice rank, pivots positive and on
    strictly increasing rows, entries left of a pivot reduced into
    ``[0, pivot)``, and zero columns dropped.  Two generating matrices
    span the same lattice iff their column HNFs are identical.

    Rows are taken top down.  At row ``i`` the column whose entry there
    is the smallest nonzero one is the pivot, every other column is
    reduced against it to a floor-division remainder, and the smallest
    remainder becomes the next pivot, until one column alone is nonzero
    in row ``i``.  No Bezout (extended-gcd) combination is formed: its
    multipliers are what makes entries explode (Havas-Majewski-Matthews,
    *Extended gcd and Hermite normal form algorithms via lattice basis
    reduction*, 1998).
    """
    n, k = m.rows, m.cols
    a = [list(row) for row in m.entries]
    j = 0
    for i in range(n):
        if j >= k:
            break
        ri = a[i]
        live, piv, best = [], None, 0
        for l in range(j, k):
            e = ri[l]
            if e:
                live.append(l)
                if piv is None or abs(e) < best:
                    piv, best = l, abs(e)
        if piv is None:
            continue
        # columns j.. are zero above row i, so every update starts at row i
        below = a[i:]
        while len(live) > 1:
            d = ri[piv]
            rest, nxt = [piv], None
            for l in live:
                if l != piv:
                    q = ri[l] // d
                    for row in below:
                        row[l] -= q * row[piv]
                    e = ri[l]
                    if e:
                        rest.append(l)
                        if abs(e) < best:
                            nxt, best = l, abs(e)
            live = rest
            if nxt is not None:
                piv = nxt
        sign = -1 if ri[piv] < 0 else 1
        for row in below:
            row[piv], row[j] = row[j], sign * row[piv]
        d = ri[j]
        for c in range(j):
            q = ri[c] // d
            if q:
                for row in below:
                    row[c] -= q * row[j]
        j += 1
    return IntMatrix(n, j, tuple(tuple(row[:j]) for row in a))


def lattice_solve(h: IntMatrix, vec: tuple[int, ...] | list[int]) -> tuple[int, ...] | None:
    """Coordinates of ``vec`` in the columns of the HNF basis ``h``.

    Returns ``None`` when the vector is not in the lattice.  Because the
    pivots sit on strictly increasing rows the solution, when it exists,
    is unique and found by forward substitution.  A column is zero above
    its pivot, so one walk down the rows meets the pivots in order, and
    a row that holds no pivot must already be cleared.
    """
    res = list(vec)
    coords = [0] * h.cols
    j = 0
    for i, row in enumerate(h.entries):
        d = row[j] if j < h.cols else 0
        if d == 0:
            if res[i]:
                return None
            continue
        c, r = divmod(res[i], d)
        if r:
            return None
        coords[j] = c
        if c:
            for t in range(i, h.rows):
                res[t] -= c * h.entries[t][j]
        j += 1
    return tuple(coords)


# ---------------------------------------------------------------------------
# Diagonal forms: Smith form, cokernel bases, kernels and solutions
# ---------------------------------------------------------------------------

def _diagonal_form(m: IntMatrix, rhs: IntMatrix | None = None
                   ) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """Diagonalize ``m`` by unimodular row and column operations.

    Returns ``(diag, carried, vcols)``: ``diag`` holds the nonzero pivots
    ``d_0 .. d_{r-1}`` (``r`` is the rank) of a diagonal matrix
    ``D = U·m·V``; ``carried`` holds the rows of ``U·rhs`` (empty rows
    when there is no ``rhs``); ``vcols`` are the columns of ``V``.  The
    columns of ``rhs`` ride as extra columns of ``m`` through every row
    operation, while the pivot search and the column operations stop at
    ``m.cols``, so ``D`` and ``V`` do not depend on ``rhs``, and ``U`` is
    built only when ``rhs`` is the identity.  The first pivot of a stage
    is the smallest nonzero absolute value, the search stopping at the
    first ``±1``.  The pivot column and then the pivot row are reduced to
    floor-division remainders, and the smallest remainder left in either
    becomes the pivot, until both hold the pivot alone.  The divisibility
    chain is not enforced, since solvability and the kernel need only
    some diagonal form.
    """
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
            for row in a[t:]:
                row[t], row[j] = row[j], row[t]
            vc[t], vc[j] = vc[j], vc[t]
        # rows t.. hold zeros left of column t, so every update starts there
        while True:
            # the pivot column: each row below keeps its remainder, and the
            # smallest remainder moves up as the next pivot
            while True:
                rt = a[t]
                p, tail = rt[t], rt[t:]
                piv, best = None, abs(p)
                for i in range(t + 1, n):
                    ri = a[i]
                    x = ri[t]
                    if x:
                        q = x // p
                        if q:
                            ri[t:] = [u - q * w for u, w in zip(ri[t:], tail)]
                            x = ri[t]
                        if x and abs(x) < best:
                            piv, best = i, abs(x)
                if piv is None:
                    break
                a[t], a[piv] = a[piv], a[t]
            # the pivot row, by column operations; column t stays zero
            # below the pivot until a swap brings another column in (dirty)
            dirty = False
            while True:
                p, vt = rt[t], vc[t]
                low = [ri for ri in a[t + 1:] if ri[t]] if dirty else ()
                piv, best = None, abs(p)
                for j in range(t + 1, k):
                    x = rt[j]
                    if x:
                        q = x // p
                        if q:
                            x = rt[j] = x - q * p
                            for ri in low:
                                ri[j] -= q * ri[t]
                            vc[j] = [u - q * w for u, w in zip(vc[j], vt)]
                        if x and abs(x) < best:
                            piv, best = j, abs(x)
                if piv is None:
                    break
                for row in a[t:]:
                    row[t], row[piv] = row[piv], row[t]
                vc[t], vc[piv] = vc[piv], vc[t]
                dirty = True
            if not dirty:
                break
        diag.append(a[t][t])
    return diag, [row[k:] for row in a], vc


def snf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form with transforms.

    Returns ``(U, S, V)`` where ``U`` and ``V`` are unimodular
    (``|det| = 1``), ``S = U @ m @ V`` is (rectangular) diagonal with
    nonnegative entries ``d_1 | d_2 | ...`` forming a divisibility chain.

    The diagonal form carries the identity, whose rows come back as
    ``U``.  Negating rows of ``U`` makes the diagonal nonnegative, and the
    pairwise sweep of ``valgroup.canonical_invariants`` forces the chain
    (Kannan-Bachem 1979): each step turns ``diag(a, b)`` with ``a ∤ b``
    into ``diag(gcd, lcm)`` by a determinant-one transform on each side.
    """
    n, k = m.rows, m.cols
    diag, u, v = _diagonal_form(m, IntMatrix.identity(n))
    for i, d in enumerate(diag):
        if d < 0:
            diag[i] = -d
            u[i] = [-x for x in u[i]]
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            a, b = diag[i], diag[j]
            if b % a:
                g, x, y = gcdex(a, b)
                p, q = a // g, b // g
                ui, uj, vi, vj = u[i], u[j], v[i], v[j]
                u[i] = [x * s + y * t for s, t in zip(ui, uj)]
                u[j] = [p * t - q * s for s, t in zip(ui, uj)]
                v[i] = [s + t for s, t in zip(vi, vj)]
                v[j] = [x * p * t - y * q * s for s, t in zip(vi, vj)]
                diag[i], diag[j] = g, a * q
    s = tuple((0,) * i + (d,) + (0,) * (k - i - 1) for i, d in enumerate(diag))
    return (IntMatrix(n, n, tuple(map(tuple, u))),
            IntMatrix(n, k, s + ((0,) * k,) * (n - len(diag))), IntMatrix.from_cols(v, rows=k))


def diagonal_basis(rel: IntMatrix) -> tuple[tuple[int, ...], IntMatrix]:
    """A basis of ``Z^n`` in which the column lattice of ``rel`` is diagonal.

    Returns ``(d, W)`` with ``W`` unimodular and one ``d_i`` per row of
    ``rel``, such that the columns of ``W·rel`` span ``⊕ d_i·Z e_i``, so
    ``W`` carries the cokernel of ``rel`` onto ``⊕ Z/d_i``.  ``d`` holds
    the nonzero pivots of one diagonal form of ``relᵀ``, padded with
    zeros, and ``W`` is the transpose of that form's column transform;
    the divisibility chain is not enforced.
    """
    diag, _, vc = _diagonal_form(rel.transpose())
    n = rel.rows
    return tuple(diag) + (0,) * (n - len(diag)), IntMatrix(n, n, tuple(map(tuple, vc)))


def kernel_basis(m: IntMatrix) -> IntMatrix:
    """A basis (as columns) of the integer kernel ``{x : m x = 0}``.

    The columns of ``V`` past the rank in one diagonal form ``U·m·V``.
    """
    diag, _, vc = _diagonal_form(m)
    return IntMatrix.from_cols(vc[len(diag):], rows=m.cols)


def solve(m: IntMatrix, b: IntMatrix) -> IntMatrix | None:
    """An integer ``X`` with ``m·X = b``, or ``None`` if some column of
    ``b`` has no solution.

    Every column of ``b`` rides through one diagonal form ``U·m·V``, whose
    pivots and ``V`` never look at them, so each column of ``X`` is the
    solution that ``b``'s column alone would get.  That solution is
    deterministic: the free coordinates of the diagonal form are set to
    zero.  Callers must not rely on which solution it is; any valid
    solution serves.
    """
    diag, c, vc = _diagonal_form(m, b)
    if any(any(row) for row in c[len(diag):]):
        return None
    if any(x % d for d, row in zip(diag, c) for x in row):
        return None
    y = [[x // d for x in row] for d, row in zip(diag, c)]
    return (IntMatrix.from_cols(vc[:len(diag)], rows=m.cols)
            @ IntMatrix.from_rows(y, cols=b.cols))
