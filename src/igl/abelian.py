"""Exact calculus of finitely generated abelian groups.

A group is presented as the cokernel of an integer relation matrix: the
group with ``n`` generators and relation matrix ``R`` (columns are
relators) is ``Z^n / R·Z^k``.  A diagonal form of the column HNF of its
unit-free core turns any presentation into canonical invariant factors
(no Smith transform is built), and all higher operations -- kernels,
cokernels, images, exact sequences, the six-term kernel-cokernel sequence
of a commuting ladder, splitting tests with explicit sections, and
amalgamated quotients with their standard form -- reduce to lattice
computations over Z carried out exactly in :mod:`igl.matrices`.
``decide_diagram`` decides a ``group_diagram`` instance on top of them,
and ``check_diagram`` and ``check_valuation`` are ``verify``'s checks.

Design notes.

* Values are immutable after construction and every operation is pure;
  caches (invariant factors, relation-lattice bases) are filled once.
* Two groups are isomorphic when their canonical invariant factors
  coincide, and code that asks compares ``invariant_factors``; ``==`` on
  groups is object identity.
* No record checks itself.  The facts an instance supplies are checked
  once, where it is parsed: the parse calls ``FgHom.__post_init__`` (the
  generator matrix carries the source relation lattice into the target
  relation lattice) on each map it reads and ``ShortExactSeq.__post_init__``
  (exactness) on each sequence, and ``ladder_terms`` and
  ``amalgam_quotient`` check the ladder's squares and each part's
  conditions.  The maps that the engine builds (kernel inclusions,
  factorizations, connecting maps, sections, the amalgam map) are well
  defined by construction and are not re-checked.
* ``decide`` builds and ``verify`` checks: what the engine guarantees
  (the six-term sequence of a ladder is exact, the section found splits
  the projection, the amalgam map is an isomorphism) is tested by
  ``check_diagram``, not by the construction that ``decide`` runs, and
  ``decide`` builds no map that it does not report.
* A map identity (a commuting square, a section, a left inverse, a zero
  composite) is one relation test: ``FgGroup.congruent`` compares two
  matrix products column by column modulo the target's relations.  No
  map is built to be compared.
* The diagram predicates are lattice identities.  ``lattices`` reads a
  map's image lattice and kernel lattice off one column HNF, and each
  predicate takes a map's pair once, then compares canonical HNFs: the
  kernel against the source relation lattice, the image against the
  identity, one map's image against the next map's kernel.  No kernel or
  cokernel group is presented and no Smith form runs for them.
* Where preimages must be lifted (connecting maps, sections,
  factorizations), all of them are the columns of one right-hand side,
  solved by one elimination; each lift is the deterministic solution the
  integer solver gives its column, and any valid lift induces the same
  map on classes.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from operator import sub

from .errors import DiagramError
# ``snf`` has no caller here; the benchmark's tracer counts this binding
from .matrices import (IntMatrix, _diagonal_form, block_diag, column_hnf, diagonal_basis,
                       hstack, lattice_solve, snf, solve, unit_core, vstack)
from .valgroup import (CertStep, Check, Decision, GroupExpr, ValueTower, Verdict, agree,
                       canonical_invariants, fg_expr, inv_of_valuation,
                       normal_invariant_factors, render_normal)


# ---------------------------------------------------------------------------
# Groups
# ---------------------------------------------------------------------------

class FgGroup:
    """A finitely generated abelian group, presented by relations.

    ``relations`` has one row per generator; each column is a relator.
    ``FgGroup(2, IntMatrix.from_rows([[2, 0], [0, 3]]))`` is
    ``Z/2 ⊕ Z/3 ≅ Z/6``.  The instance keeps a ``__dict__`` for its
    cached properties.
    """

    def __init__(self, generators: int, relations: IntMatrix) -> None:
        self.generators = generators
        self.relations = relations

    # -- constructors ------------------------------------------------------

    @classmethod
    def free(cls, n: int) -> "FgGroup":
        return cls(n, IntMatrix.zeros(n, 0))

    @classmethod
    def cyclic(cls, n: int) -> "FgGroup":
        return cls(1, IntMatrix.from_rows([[n]]))

    @classmethod
    def from_invariants(cls, *factors: int) -> "FgGroup":
        """Canonical presentation of ``⊕ Z/d`` (``d = 0`` meaning ``Z``)."""
        n = len(factors)
        return cls(n, IntMatrix.from_cols([[d if t == i else 0 for t in range(n)]
                                           for i, d in enumerate(factors) if d], rows=n))

    # -- canonical structure ----------------------------------------------

    @cached_property
    def invariant_factors(self) -> tuple[int, ...]:
        """Canonical invariant factors: the torsion chain ``d_1 | d_2 | ...``
        (each > 1) followed by one ``0`` per infinite cyclic summand.
        The ``±1`` pivots are eliminated first.  The column HNF of the core
        that is left has one column per rank, so the free rank is the
        core's rows less its columns, and one diagonal form of that HNF
        gives the torsion orders, which ``canonical_invariants`` brings
        into a chain; no Smith transform is built."""
        _, core = unit_core(self.relations)
        h = column_hnf(core)
        diag = _diagonal_form(h)[0]
        return canonical_invariants([abs(d) for d in diag] + [0] * (h.rows - h.cols))

    @cached_property
    def relation_lattice(self) -> IntMatrix:
        """Canonical HNF basis of the relation lattice inside Z^generators."""
        return column_hnf(self.relations)

    # -- presentations and relations ---------------------------------------

    def contains_relation(self, vec) -> bool:
        return lattice_solve(self.relation_lattice, vec) is not None

    def congruent(self, a: IntMatrix, b: IntMatrix) -> bool:
        """Whether ``a`` and ``b``, one row per generator, agree modulo the
        relations column by column: two maps into this group are equal
        exactly when their matrices are congruent."""
        return all(self.contains_relation(tuple(map(sub, u, v)))
                   for u, v in zip(a.transpose().entries, b.transpose().entries))

    def to_expr(self) -> GroupExpr:
        return fg_expr(self.invariant_factors)

    def describe(self) -> str:
        return render_normal(self.to_expr())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FgGroup<{self.describe()}>"


def is_free(g: FgGroup) -> bool:
    """Free means no torsion: every invariant factor is 0 (or the trivial 1)."""
    return all(d == 0 for d in g.invariant_factors)


def direct_sum(groups: list[FgGroup]) -> FgGroup:
    return FgGroup(sum(g.generators for g in groups),
                   block_diag(*[g.relations for g in groups]))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

class FgHom(namedtuple("FgHom", "source target matrix")):
    """A homomorphism, given by its integer matrix on generators: one row
    per target generator, one column per source generator.

    A plain record, built unchecked.  ``__post_init__`` is the check of a
    map that an instance supplies, which the parse calls.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        """Well-definedness: the matrix carries every relator of the source
        into the relation lattice of the target."""
        for j in range(self.source.relations.cols):
            img = self.matrix.apply(self.source.relations.col(j))
            if not self.target.contains_relation(img):
                raise DiagramError(
                    f"not well-defined: image of relator {j} is not a relation of the target")


Lattices = namedtuple("Lattices", "image kernel")


def lattices(h: FgHom) -> Lattices:
    """Canonical HNF bases of a map's image lattice, ``im(h) + relations``
    inside Z^target, and of its kernel lattice, ``{x in Z^source : h(x)
    is a relation of the target}``, read off one column HNF of
    ``[[M R]; [I 0]]`` (Cohen, *A Course in Computational Algebraic
    Number Theory*, 1993, §2.4).

    The columns whose pivot lies in the top rows, cut to those rows, are
    the HNF of ``[M | R]``; the other columns are zero there, and cut to
    the bottom rows they are the HNF of the kernel lattice.  That lattice
    holds the source relations because ``h`` is well defined: the parse
    checks each map it reads, and the engine builds its own maps so.
    """
    t, s = h.target.generators, h.source.generators
    width = s + h.target.relations.cols
    upper = tuple(m + r for m, r in zip(h.matrix.entries, h.target.relations.entries))
    lower = tuple((0,) * i + (1,) + (0,) * (width - i - 1) for i in range(s))
    full = column_hnf(IntMatrix(t + s, width, upper + lower))
    top, bottom = full.entries[:t], full.entries[t:]
    # a column is zero above its pivot, so one walk down the top rows
    # meets the pivots that lie there in order
    r = 0
    for row in top:
        if r < full.cols and row[r]:
            r += 1
    return Lattices(IntMatrix(t, r, tuple(row[:r] for row in top)),
                    IntMatrix(s, full.cols - r, tuple(row[r:] for row in bottom)))


def kernel_lattice(h: FgHom) -> IntMatrix:
    """HNF basis of ``{x in Z^src : h(x) is a relation of the target}``."""
    return lattices(h).kernel


def _sublattice_group(ambient: FgGroup, basis: IntMatrix) -> tuple[FgGroup, FgHom]:
    """Present ``lattice(basis)/relations(ambient)`` and its inclusion;
    ``basis`` contains the ambient relation lattice."""
    grp = FgGroup(basis.cols, IntMatrix.from_cols(
        [lattice_solve(basis, ambient.relations.col(j)) for j in range(ambient.relations.cols)],
        rows=basis.cols))
    return grp, FgHom(grp, ambient, basis)


def kernel_with_inclusion(h: FgHom) -> tuple[FgGroup, FgHom]:
    return _sublattice_group(h.source, kernel_lattice(h))


def cokernel(h: FgHom) -> FgGroup:
    """Target modulo image: relations are the image columns joined with the
    target relations."""
    return FgGroup(h.target.generators, hstack(h.matrix, h.target.relations))


def injective(h: FgHom, pair: Lattices) -> bool:
    """The kernel lattice is the source relation lattice, no larger."""
    return pair.kernel.entries == h.source.relation_lattice.entries


def surjective(h: FgHom, pair: Lattices) -> bool:
    """The image and the target relations span all of Z^target."""
    return pair.image.entries == IntMatrix.identity(h.target.generators).entries


def is_isomorphism(h: FgHom) -> bool:
    pair = lattices(h)
    return injective(h, pair) and surjective(h, pair)


def factor_through(source: FgGroup, matrix: IntMatrix, incl: FgHom) -> FgHom:
    """Factor the map from ``source`` with generator images ``matrix``
    through an injective inclusion whose columns span a lattice
    containing its image: return ``u`` with ``incl ∘ u`` equal to the map
    on generators (inclusions as produced for kernels by
    :func:`kernel_with_inclusion`).  The map itself is never built, so a
    composite is passed as its matrix product.  Every column of ``matrix``
    is solved for in one elimination."""
    return FgHom(source, incl.source, solve(incl.matrix, matrix))


# ---------------------------------------------------------------------------
# Short exact sequences
# ---------------------------------------------------------------------------

class ShortExactSeq(namedtuple("ShortExactSeq", "left mid right inj surj")):
    """``0 → left → mid → right → 0``, with ``inj: left → mid`` and
    ``surj: mid → right``.

    A plain record, built unchecked.  ``__post_init__`` is the check of a
    sequence that an instance supplies, which the parse calls.
    """

    __slots__ = ()

    def __post_init__(self) -> None:
        """Exactness at each of the three terms: one Hermite elimination
        for each map."""
        inj, surj = lattices(self.inj), lattices(self.surj)
        if not injective(self.inj, inj):
            raise DiagramError("sequence not exact: the left map is not injective")
        if not surjective(self.surj, surj):
            raise DiagramError("sequence not exact: the right map is not surjective")
        if inj.image.entries != surj.kernel.entries:
            raise DiagramError("sequence not exact: image of the inclusion "
                               "differs from the kernel of the projection")

# ---------------------------------------------------------------------------
# Snake: the six-term kernel-cokernel sequence
# ---------------------------------------------------------------------------

class SnakeResult(namedtuple("SnakeResult", "ker_f ker_g ker_h coker_f coker_g coker_h "
                                             "ker_fg ker_gh connecting coker_fg coker_gh")):
    """``0 → ker f → ker g → ker h → coker f → coker g → coker h → 0``."""

    __slots__ = ()

    def verify_exact(self) -> str | None:
        """The first position where the sequence is not exact, or ``None``.
        The snake lemma says there is none: ``snake`` does not call this,
        and ``verify``'s check of a ladder does.  Each of the five maps
        takes one Hermite elimination."""
        maps = (self.ker_fg, self.ker_gh, self.connecting, self.coker_fg, self.coker_gh)
        pairs = [lattices(m) for m in maps]
        if not injective(self.ker_fg, pairs[0]):
            return "six-term sequence not exact at ker f"
        for name, a, b in zip(("ker g", "ker h", "coker f", "coker g"), pairs, pairs[1:]):
            if a.image.entries != b.kernel.entries:
                return f"six-term sequence not exact at {name}"
        if not surjective(self.coker_gh, pairs[-1]):
            return "six-term sequence not exact at coker h"
        return None


def _lift_through(cols_matrix: IntMatrix, rel: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Deterministic lift of every column of ``b`` in one elimination:
    an ``X`` with ``cols_matrix·X ≡ b (mod rel)``, column by column."""
    sol = solve(hstack(cols_matrix, rel), b)
    return IntMatrix(cols_matrix.cols, b.cols, sol.entries[:cols_matrix.cols])


def ladder_terms(top: ShortExactSeq, bottom: ShortExactSeq, f: FgHom, g: FgHom,
                 h: FgHom) -> tuple[list[tuple[FgGroup, FgHom]], list[FgGroup]]:
    """The six terms of a commuting ladder of two exact rows: the kernels
    of ``f``, ``g`` and ``h``, each with its inclusion, and their
    cokernels.

    ``f``, ``g`` and ``h`` connect the rows, as the parse builds them.
    The input is rejected, with a diagnostic naming the failing square,
    unless both squares commute.  ``decide`` describes these terms, and
    ``snake`` builds the maps between them.
    """
    if not bottom.mid.congruent(g.matrix @ top.inj.matrix, bottom.inj.matrix @ f.matrix):
        raise DiagramError("left square does not commute")
    if not bottom.right.congruent(h.matrix @ top.surj.matrix, bottom.surj.matrix @ g.matrix):
        raise DiagramError("right square does not commute")
    return [kernel_with_inclusion(m) for m in (f, g, h)], [cokernel(m) for m in (f, g, h)]


def snake(top: ShortExactSeq, bottom: ShortExactSeq,
          f: FgHom, g: FgHom, h: FgHom) -> SnakeResult:
    """Six-term exact sequence of a commuting ladder of two exact rows:
    the terms of ``ladder_terms`` and the five maps between them.

    The connecting map lifts the generators of ``ker h`` through the top
    projection, pushes them down ``g``, and pulls them back through the
    bottom inclusion, each lift one elimination for all generators; the
    lift choice is deterministic and irrelevant on classes.  The lemma
    makes the result exact, so it is not re-checked here;
    ``SnakeResult.verify_exact`` is ``verify``'s check of it.
    """
    kernels, (qf, qg, qh) = ladder_terms(top, bottom, f, g, h)
    (kf, kf_incl), (kg, kg_incl), (kh, kh_incl) = kernels

    ker_fg = factor_through(kf, top.inj.matrix @ kf_incl.matrix, kg_incl)
    ker_gh = factor_through(kg, top.surj.matrix @ kg_incl.matrix, kh_incl)

    x = _lift_through(top.surj.matrix, top.right.relations, kh_incl.matrix)
    connecting = FgHom(kh, qf, _lift_through(bottom.inj.matrix, bottom.mid.relations,
                                             g.matrix @ x))

    coker_fg = FgHom(qf, qg, bottom.inj.matrix)
    coker_gh = FgHom(qg, qh, bottom.surj.matrix)

    return SnakeResult(kf, kg, kh, qf, qg, qh,
                       ker_fg, ker_gh, connecting, coker_fg, coker_gh)


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

SplitResult = namedtuple("SplitResult", "splits section")


def split_test(s: ShortExactSeq) -> SplitResult:
    """Decide whether the sequence splits; produce an explicit section.

    A section is an integer matrix ``X`` on generators with
    ``surj ∘ X = id`` as maps, carrying the right term's relators into
    the middle term's relations.  ``diagonal_basis`` writes the right
    term as ``⊕ Z/d_i`` on new generators ``e_i`` (``X = X'·W``), and one
    elimination lifts every ``e_i`` through the projection to some
    ``x_i``.  The section is then built one cyclic factor at a time: a
    torsion factor needs ``d_i·x_i`` to be a relation of the middle term.
    Any other lift differs from ``x_i`` by ``inj(a)`` plus a relation, so
    the factor admits one exactly when ``[d_i·inj | rB]`` solves
    ``-d_i·x_i``, a system of its own for each ``d_i``; if some factor
    admits none, no section exists.  A free factor needs no correction
    (free groups are projective), and a unit factor is zero in the right
    term.  The section is well defined and splits by construction;
    ``verify``'s check of a sequence tests ``surj·X`` against the
    identity, modulo the right term's relations.
    """
    inj, surj = s.inj.matrix, s.surj.matrix
    rB = s.mid.relations
    nB, nC = s.mid.generators, s.right.generators
    d, w = diagonal_basis(s.right.relations)
    diag = IntMatrix.from_cols([[di if t == i else 0 for t in range(nC)]
                                for i, di in enumerate(d) if di], rows=nC)
    x = _lift_through(w @ surj, diag, IntMatrix.identity(nC))
    lifts = []
    for i, di in enumerate(d):
        xi = x.col(i)
        if di in (1, -1):
            xi = (0,) * nB
        elif di:
            scaled = IntMatrix(nB, inj.cols, tuple(tuple(di * v for v in row)
                                                   for row in inj.entries))
            fix = solve(hstack(scaled, rB), IntMatrix(nB, 1, tuple((-di * v,) for v in xi)))
            if fix is None:
                return SplitResult(False, None)
            xi = [v + u for v, u in zip(xi, inj.apply(fix.col(0)[:inj.cols]))]
        lifts.append(xi)
    return SplitResult(True, FgHom(s.right, s.mid, IntMatrix.from_cols(lifts, rows=nB) @ w))


# ---------------------------------------------------------------------------
# Amalgamated quotients
# ---------------------------------------------------------------------------

# One summand ``A`` with a certified internal decomposition
# ``A = B ⊕ emb(G)``: ``proj`` is the projection onto ``B`` (the
# ``complement``), ``retract`` the left inverse of ``emb``.
AmalgamPart = namedtuple("AmalgamPart", "group emb complement proj retract")

def _check_parts(g: FgGroup, parts: list[AmalgamPart]) -> None:
    """Each part must certify ``A_i = B_i ⊕ emb_i(G)``.  A left inverse
    makes the embedding injective, so the embedding's lattices are taken
    only when the retraction is not one, to tell the two faults apart."""
    for idx, p in enumerate(parts):
        if not g.congruent(p.retract.matrix @ p.emb.matrix, IntMatrix.identity(g.generators)):
            if not injective(p.emb, lattices(p.emb)):
                raise DiagramError(f"part {idx}: embedding is not injective")
            raise DiagramError(f"part {idx}: retraction is not a left inverse of the embedding")
        if not p.proj.target.congruent(p.proj.matrix @ p.emb.matrix,
                                       IntMatrix.zeros(p.proj.target.generators, g.generators)):
            raise DiagramError(f"part {idx}: projection does not kill the embedded copy")
        combined = FgHom(p.group, direct_sum([p.complement, g]),
                         vstack(p.proj.matrix, p.retract.matrix))
        if not is_isomorphism(combined):
            raise DiagramError(f"part {idx}: (projection, retraction) is not an "
                               "internal direct-sum decomposition")


def amalgam_quotient(g: FgGroup, parts: list[AmalgamPart]) -> tuple[int, ...]:
    """Canonical invariant factors of the quotient of ``⊕ A_i`` by the
    diagonal copy of ``G``.

    ``parts`` is nonempty, and each part's maps run between its group, its
    complement and ``g``, as the parse builds them.  Each part's
    decomposition is checked; the checked decompositions make the quotient
    isomorphic to its standard form ``B_1 ⊕ … ⊕ B_n ⊕ G^{n-1}``, whose
    invariant factors are read off those of the complements and of ``g``.
    No presentation of the quotient is built: ``amalgam_map`` is the
    isomorphism, which ``verify``'s check builds and tests.
    """
    _check_parts(g, parts)
    return canonical_invariants([d for p in parts for d in p.complement.invariant_factors]
                                + list(g.invariant_factors) * (len(parts) - 1))


def amalgam_map(g: FgGroup, parts: list[AmalgamPart]) -> FgHom:
    """``ψ: ⊕ A_i → B_1 ⊕ … ⊕ B_n ⊕ G^{n-1}``: its components are the
    ``B``-projections and the differences of each retraction but the last
    with the last one.  It is well defined on the sum by construction;
    when its kernel is the diagonal copy of ``G`` and its image
    everything, it descends to an isomorphism from the quotient onto the
    standard form."""
    n = len(parts)
    m = block_diag(*[p.proj.matrix for p in parts])
    if n > 1:
        last = -parts[-1].retract.matrix
        m = vstack(m, hstack(block_diag(*[p.retract.matrix for p in parts[:-1]]),
                             vstack(*[last] * (n - 1))))
    return FgHom(direct_sum([p.group for p in parts]),
                 direct_sum([p.complement for p in parts] + [g] * (n - 1)), m)


# ---------------------------------------------------------------------------
# Deciding a diagram, and the checks that the engine makes for ``verify``
# ---------------------------------------------------------------------------

def decide_diagram(check: str, *parsed) -> Decision:
    """Decide a ``group_diagram`` instance; ``check`` names what ``parsed``
    holds: a group, a short exact sequence, a ladder's two rows and maps
    ``f``, ``g``, ``h`` (``snake``), or a group and its amalgam parts.  The
    group decided is free when it has no torsion factor."""
    expr, metadata, text = None, {}, None
    if check == "group":
        (g,) = parsed
        free, expr, metadata = is_free(g), g.to_expr(), {"invariants": list(g.invariant_factors)}
        cert = (CertStep.make(
            "invariant-factors",
            "the canonical invariant factors decide freeness: free means no "
            "torsion factor",
            invariants=g.invariant_factors),)
    elif check == "ses":
        (s,) = parsed
        split = split_test(s)
        free, expr, metadata = is_free(s.mid), s.mid.to_expr(), {"splits": split.splits}
        cert = (CertStep.make("exactness-verified",
                              "the three-term sequence is exact as stated"),
                CertStep.make("split-test",
                              "each cyclic factor of the right term was lifted through "
                              "the projection in turn, a torsion lift corrected by the "
                              "inclusion, to build an explicit section or show that "
                              "none exists",
                              splits=split.splits))
    elif check == "snake":
        kernels, cokernels = ladder_terms(*parsed)
        groups = [grp for grp, _ in kernels] + cokernels
        terms = [grp.describe() for grp in groups]
        free, metadata = all(is_free(grp) for grp in groups), {"six_terms": terms}
        cert = (CertStep.make(
            "six-term-exact",
            "the kernel-cokernel sequence of the ladder is exact at every "
            "position",
            terms=" | ".join(terms)),)
    else:  # amalgam
        invariants = amalgam_quotient(*parsed)
        free, expr = all(d == 0 for d in invariants), fg_expr(invariants)
        # the checked parts make the quotient its standard form: one text is both
        text = render_normal(expr)
        cert = (CertStep.make(
            "units-amalgam",
            "the quotient of the sum by the diagonal copy is isomorphic to the "
            "complements plus one fewer copies of the diagonal group; the "
            "isomorphism was constructed and verified",
            quotient=text, standard_form=text),)
    return Decision(Verdict.FREE if free else Verdict.NOT_FREE, cert, expr, metadata, text)


# check -> the label of ``verify``'s one check of it
DIAGRAM_CHECKS = {"group": "group-well-formed", "ses": "sequence-exact-and-split-tested",
                  "snake": "ladder-and-six-term", "amalgam": "amalgam-isomorphism"}


def check_diagram(check: str, *parsed) -> list[Check]:
    """``verify``'s one check of a diagram, made by the engine calls of its
    decision.  The guarantees that ``decide`` takes on trust are tested
    here: the section that ``split_test`` finds splits the projection, the
    six-term sequence that ``snake`` builds is exact at every position,
    and ``amalgam_map`` has the diagonal copy of ``G`` as its kernel and
    is onto.  ``cli.verify_payload`` reports a ``DiagramError`` as the
    check failing."""
    label = DIAGRAM_CHECKS[check]
    if check == "group":
        return [(label, True, parsed[0].describe())]
    if check == "ses":
        (s,) = parsed
        split = split_test(s)
        ok = not split.splits or s.right.congruent(s.surj.matrix @ split.section.matrix,
                                                   IntMatrix.identity(s.right.generators))
        return [agree(label, ok, True, f"exact; splits={split.splits}",
                      "the section found does not split the projection")]
    if check == "snake":
        fault = snake(*parsed).verify_exact()
        return [agree(label, fault, None, "six-term sequence exact", fault)]
    g, parts = parsed
    _check_parts(g, parts)
    psi = amalgam_map(g, parts)
    phi = FgHom(g, psi.source, vstack(*[p.emb.matrix for p in parts]))
    onto = lattices(psi)
    if lattices(phi).image.entries != onto.kernel.entries:
        raise DiagramError("amalgam map has the wrong kernel")
    if not surjective(psi, onto):
        raise DiagramError("amalgam map is not surjective")
    return [(label, True, "kernel and surjectivity verified")]


def check_valuation(tower: ValueTower) -> list[Check]:
    """``verify``'s check of a valuation: the invariant factors of a
    discrete tower's value group, recounted against ``Z^n`` of the engine."""
    if not tower.is_free():
        return [("tower-crosscheck", True, "skipped: tower not discrete")]
    n = len(tower)
    return [agree("tower-crosscheck", normal_invariant_factors(inv_of_valuation(tower)),
                  FgGroup.free(n).invariant_factors,
                  f"Z^{n} cross-checked through the exact engine")]
