"""Symbolic (possibly infinite) abelian groups and the freeness rule system.

Groups that cannot be presented by a finite integer matrix -- value groups
of valuation rings, unit groups of fields, infinite products -- are
represented here as expression trees over a small set of atoms:

* ``Z``, ``Q``, ``R``     -- the integers, rationals and reals,
* ``Cyclic(n)``           -- the cyclic group of order ``n``,
* ``ZPROD``               -- the direct *product* of countably many copies
                             of ``Z`` (famously unfree),
* ``Opaque(...)``         -- a group known only through declared
                             properties, echoed verbatim in certificates,
* ``UNKNOWN``             -- no information at all,

combined with ``DirectSum``, ``LexTower`` (a lexicographic tower of
groups, listed from the maximal-ideal end down to the root end) and
``Repeated`` (a direct sum of many copies, with an integer or symbolic
ordinal multiplicity).

``freeness_verdict`` decides ``Free`` / ``NotFree`` / ``Unknown``.  The
rule system is deliberately conservative: a ``Free`` answer always comes
with a derivation (sums of free pieces are free) and a ``NotFree`` answer
always comes with a witness that survives inside the group (a torsion
element, a nonzero divisible element, the full infinite product, a
nontrivial quotient of the additive group of a field, or an explicit
declaration).  Whatever cannot be certified is ``Unknown``; the system
never guesses.

Expressions have a canonical text rendering, e.g. ``Z ⊕ lex(Z;Q) ⊕ R``,
produced by :func:`render_expr`.  The grammar is documented in the README;
the parser in ``tests/oracles.py`` reads it back and checks that it
round-trips exactly.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from math import gcd

from .errors import SchemaError


class Verdict(str, enum.Enum):
    FREE = "Free"
    NOT_FREE = "NotFree"
    UNKNOWN = "Unknown"
    DIRECT_SUM_FREE = "DirectSumFree"
    DIRECT_SUM = "DirectSum"
    OBSTRUCTED = "Obstructed"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class CertStep(namedtuple("CertStep", "rule statement inputs", defaults=((),))):
    """One step of a certificate: a named rule plus a plain statement of
    what the rule asserts, and the inputs it consumed."""

    __slots__ = ()

    @classmethod
    def make(cls, rule: str, statement: str, **inputs: object) -> "CertStep":
        return cls(rule, statement, tuple(sorted((k, str(v)) for k, v in inputs.items())))

    def as_dict(self, full: bool = True) -> dict:
        d = {"rule": self.rule, "statement": self.statement}
        if full:
            d["inputs"] = {k: v for k, v in self.inputs}
        return d


Certificate = tuple[CertStep, ...]


class Decision(namedtuple("Decision", "verdict certificate expr metadata text",
                          defaults=(None, {}, None))):
    """What every decider returns: the verdict, the certificate behind it,
    the group expression (a normal form) when the decider builds one, the
    facts that a report copies verbatim into its ``metadata`` (read, never
    written: the default is one shared empty dict), and the expression's
    text if the decider has rendered it (the report reuses it)."""

    __slots__ = ()


Check = tuple[str, bool, str]  # one ``verify`` check: label, passed, detail


def agree(label: str, got, want, detail: str, why: str | None = None) -> Check:
    """A check that passes with ``detail`` when ``got == want``, and
    otherwise fails naming ``why``, by default the two values.  A
    comparison, not an ``assert``, so that no interpreter flag can strip
    it."""
    if got == want:
        return label, True, detail
    return label, False, "assertion failed: " + (f"{got} != {want}" if why is None else why)


# ---------------------------------------------------------------------------
# Expression atoms and nodes
# ---------------------------------------------------------------------------

class GroupExpr(tuple):
    """Base class of all symbolic group expressions.  An expression is the
    tuple of its fields, and it equals only expressions of its own type:
    as plain tuples, ``DirectSum((Z,))`` would equal ``LexTower((Z,))``."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    __hash__ = tuple.__hash__


class Atom(GroupExpr, namedtuple("Atom", "name text")):
    """A constant group, rendered as ``text``: one of the six module
    constants below, so code tells atoms apart by identity.  ``repr``
    shows ``name()``, e.g. ``IntegersZ()``, as the golden tree digests
    record it."""

    __slots__ = ()

    def __repr__(self) -> str:
        return self.name + "()"


class Cyclic(GroupExpr, namedtuple("Cyclic", "order")):
    __slots__ = ()


class Opaque(GroupExpr, namedtuple("Opaque", "label is_free is_torsionfree has_divisible",
                                   defaults=(None, None, None))):
    """A group known only through declared properties.

    Declarations are trusted inputs; they are never computed here and are
    echoed into certificates so a reader can audit them.
    """

    __slots__ = ()


class DirectSum(GroupExpr, namedtuple("DirectSum", "parts")):
    __slots__ = ()


class LexTower(GroupExpr, namedtuple("LexTower", "levels")):
    """A lexicographic tower; levels are listed from the top (maximal-ideal
    end) down to the root end.  As a plain group this is the direct sum of
    its levels; only the ordering is extra data."""

    __slots__ = ()


class Repeated(GroupExpr, namedtuple("Repeated", "base times")):
    """A direct sum of ``times`` copies of ``base``.

    ``times`` is a nonnegative integer, or a string holding an ordinal
    expression (``w`` denotes the first infinite ordinal) for an infinite
    index set.
    """

    __slots__ = ()


TRIVIAL = Atom("TrivialGroup", "0")
Z = Atom("IntegersZ", "Z")
Q = Atom("RationalsQ", "Q")
R = Atom("RealsR", "R")
ZPROD = Atom("InfiniteProductZ", "prod(Z;w)")   # the full product, not free
UNKNOWN = Atom("UnknownGroup", "?")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def normalize(e: GroupExpr) -> GroupExpr:
    """Canonical form: sums flattened, trivial parts dropped, runs of
    equal adjacent summands collapsed into ``Repeated`` nodes.  The order
    of summands is preserved (it usually records a derivation).

    Every subterm of a normal form is its own normal form, so code that
    has normalized an expression once walks its subterms as they are."""
    if isinstance(e, Cyclic):
        return TRIVIAL if e.order == 1 else e
    if isinstance(e, Repeated):
        base = normalize(e.base)
        if base is TRIVIAL or e.times == 0:
            return TRIVIAL
        if e.times == 1:
            return base
        if isinstance(base, Repeated) and isinstance(base.times, int) and isinstance(e.times, int):
            return Repeated(base.base, base.times * e.times)
        return Repeated(base, e.times)
    if isinstance(e, LexTower):
        levels = [normalize(l) for l in e.levels]
        levels = [l for l in levels if l is not TRIVIAL]
        if not levels:
            return TRIVIAL
        if len(levels) == 1:
            return levels[0]
        return LexTower(tuple(levels))
    if isinstance(e, DirectSum):
        return normal_sum(normalize(p) for p in e.parts)
    return e


def normal_sum(parts) -> GroupExpr:
    """The normal form of the direct sum of ``parts``, each of which must
    already be a normal form: the sum is flattened and merged without
    normalizing the parts again.  Adjacent summands merge when both counts
    are integers (at least 1) and their bases, compared only then, are equal;
    a run of merged summands becomes one ``Repeated`` when it ends."""
    flat: list[GroupExpr] = []
    for p in parts:
        if type(p) is DirectSum:
            flat.extend(p.parts)
        elif p is not TRIVIAL:
            flat.append(p)
    merged: list[GroupExpr] = []
    pb = pt = None  # the base and count of the last merged summand
    run = False  # whether that summand has absorbed the ones after it
    for p in flat:
        cb, ct = p if type(p) is Repeated else (p, 1)
        if type(ct) is int and type(pt) is int and (pb is cb or pb == cb):
            pt += ct
            run = True
        else:
            if run:
                merged[-1] = Repeated(pb, pt)
                run = False
            merged.append(p)
            pb, pt = cb, ct
    if run:
        merged[-1] = Repeated(pb, pt)
    if not merged:
        return TRIVIAL
    if len(merged) == 1:
        return merged[0]
    return DirectSum(tuple(merged))


def direct_sum(*parts: GroupExpr) -> GroupExpr:
    return normalize(DirectSum(tuple(parts)))


def fg_expr(invariants: tuple[int, ...]) -> GroupExpr:
    """The normal form of the finitely generated group with canonical
    invariant factors ``invariants`` (one 0 per free rank)."""
    return normal_sum(Z if d == 0 else Cyclic(d) for d in invariants if d == 0 or d > 1)


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

def _atoms(e: GroupExpr):
    """The atoms of a normal form from left to right, each with its
    multiplicity: the product of the enclosing integer ``Repeated``
    counts, or ``None`` under a symbolic count.

    Direct sums, lex towers (as plain groups, sums of their levels) and
    repeats pass freeness, torsion and divisible elements through to
    their atoms, so every property below is a rule on atoms."""
    stack: list[tuple[GroupExpr, int | None]] = [(e, 1)]
    while stack:
        x, mult = stack.pop()
        if isinstance(x, DirectSum):
            stack.extend((p, mult) for p in reversed(x.parts))
        elif isinstance(x, LexTower):
            stack.extend((l, mult) for l in reversed(x.levels))
        elif isinstance(x, Repeated):
            symbolic = mult is None or not isinstance(x.times, int)
            stack.append((x.base, None if symbolic else mult * x.times))
        else:
            yield x, mult


# ---------------------------------------------------------------------------
# Invariant factors of finitely generated expressions
# ---------------------------------------------------------------------------

def canonical_invariants(orders: list[int]) -> tuple[int, ...]:
    """Canonical invariant factors of ``⊕ Z/d`` over the list ``orders``
    (0 meaning an infinite cyclic summand): torsion chain then zeros.

    ``Z/a ⊕ Z/b ≅ Z/gcd ⊕ Z/lcm``, so pairwise gcd/lcm sweeps reach the
    divisibility chain without factoring any order."""
    chain = [d for d in orders if d > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            g = gcd(chain[i], chain[j])
            chain[i], chain[j] = g, chain[i] // g * chain[j]
    return tuple(d for d in chain if d > 1) + (0,) * orders.count(0)


def expr_invariant_factors(e: GroupExpr) -> tuple[int, ...] | None:
    """Invariant factors of a finitely generated expression, or ``None``
    when the expression is not (visibly) finitely generated."""
    return normal_invariant_factors(normalize(e))


def normal_invariant_factors(n: GroupExpr) -> tuple[int, ...] | None:
    """``expr_invariant_factors`` of a normal form, read off its atoms as
    it stands.  A run of ``Z`` counts into the free rank as one
    integer."""
    torsion: list[int] = []
    rank = 0
    for atom, mult in _atoms(n):
        if mult is None:
            return None
        if atom is Z:
            rank += mult
        elif isinstance(atom, Cyclic):
            torsion.extend([atom.order] * mult)
        elif atom is not TRIVIAL:
            return None
    return canonical_invariants(torsion) + (0,) * rank


# ---------------------------------------------------------------------------
# Freeness verdicts
# ---------------------------------------------------------------------------

# The per-atom rules: the only place that knows what each atom answers.
# A declared-free opaque group has neither torsion nor divisible elements.

def _atom_free(a: GroupExpr) -> bool:
    if isinstance(a, Opaque):
        return a.is_free is True
    return a is TRIVIAL or a is Z


def _atom_torsion(a: GroupExpr) -> bool | None:
    if isinstance(a, Cyclic):
        return True
    if isinstance(a, Opaque):
        if a.is_torsionfree is None:
            return False if a.is_free else None
        return not a.is_torsionfree
    return None if a is UNKNOWN else False


def _atom_divisible(a: GroupExpr) -> bool | None:
    if a is Q or a is R:
        return True
    if isinstance(a, Opaque):
        if a.has_divisible is None:
            return False if a.is_free else None
        return a.has_divisible
    return None if a is UNKNOWN else False


def _atom_not_free(a: GroupExpr) -> bool:
    return a is ZPROD or (isinstance(a, Opaque) and a.is_free is False)


def _witness(atoms: list[GroupExpr], rule) -> str | None:
    """Name the first atom where ``rule`` holds -- its declared label, or
    its rendering -- or ``None`` when it holds of none."""
    atom = next((a for a in atoms if rule(a) is True), None)
    if atom is None:
        return None
    return atom.label if isinstance(atom, Opaque) else render_normal(atom)


def freeness_verdict(e: GroupExpr) -> Decision:
    """Sound three-valued freeness decision with its certificate.

    ``Free`` needs a derivation: a (possibly infinite) direct sum of free
    pieces, where a lex tower counts through its underlying direct sum.
    ``NotFree`` needs a witness: torsion, a nonzero divisible element, the
    full infinite product of copies of ``Z``, a nontrivial quotient of the
    additive group of a field (``Q`` and ``R`` themselves), or a summand
    that is an infinite product or declared not free (the group itself
    among them), since subgroups of free groups are free.  Everything
    else is ``Unknown``.  The ``sum-of-free`` and ``no-rule`` steps render
    the group, and their decision carries that text as ``Decision.text``.
    """
    e = normalize(e)
    atoms = [a for a, _ in _atoms(e)]
    if all(_atom_free(a) for a in atoms):
        text = render_normal(e)
        return Decision(Verdict.FREE, (
            CertStep.make("sum-of-free",
                          "a direct sum of infinite cyclic and declared-free pieces is free",
                          group=text),), text=text)
    witness = _witness(atoms, _atom_torsion)
    if witness is not None:
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("torsion-witness",
                          "a nonzero torsion element survives in every direct-sum "
                          "decomposition, and free groups are torsionfree",
                          witness=witness),))
    witness = _witness(atoms, _atom_divisible)
    if witness is not None:
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("divisible-witness",
                          "a nonzero element divisible by every integer survives in "
                          "direct summands, and free groups have none",
                          witness=witness),))
    witness = _witness(atoms, _atom_not_free)
    if witness is not None:
        # the group, or a summand of it, is an infinite product or declared
        # not free; the full product alone keeps the rule that names it
        if e is ZPROD:
            return Decision(Verdict.NOT_FREE, (
                CertStep.make("infinite-product",
                              "the direct product of infinitely many copies of Z is not free"),))
        return Decision(Verdict.NOT_FREE, (
            CertStep.make("not-free-summand",
                          "a direct summand is a subgroup, and subgroups of free "
                          "groups are free (Dedekind), so a sum with a summand that "
                          "is not free is not free",
                          witness=witness),))
    text = render_normal(e)
    return Decision(Verdict.UNKNOWN, (
        CertStep.make("no-rule",
                      "no freeness derivation and no unfreeness witness applies",
                      group=text),), text=text)


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _render_flags(o: Opaque) -> str:
    bits = [f'"{o.label}"']
    yn = {True: "yes", False: "no"}
    if o.is_free is not None:
        bits.append(f"free={yn[o.is_free]}")
    if o.is_torsionfree is not None:
        bits.append(f"torsionfree={yn[o.is_torsionfree]}")
    if o.has_divisible is not None:
        bits.append(f"divisible={yn[o.has_divisible]}")
    return "opaque(" + ",".join(bits) + ")"


def _render_item(e: GroupExpr) -> str:
    # a summand of a normal form, never a sum: one test of its exact type
    kind = type(e)
    if kind is Atom:
        return e.text
    if kind is Repeated:
        base, times = e
        kind = type(base)
        if kind is Atom:
            text = base.text
        elif kind is LexTower or kind is Opaque:
            text = _render_item(base)
        else:  # a sum, a repeat or a cyclic group is bracketed
            text = "(" + render_normal(base) + ")"
        return f"{text}^{times}" if type(times) is int else f"{text}^({times})"
    if kind is LexTower:
        return "lex(" + ";".join([render_normal(l) for l in e.levels]) + ")"
    if kind is Cyclic:
        return f"Z/{e.order}"
    return _render_flags(e)


def render_normal(e: GroupExpr) -> str:
    """Canonical text of an expression that is already a normal form."""
    if type(e) is DirectSum:
        return " ⊕ ".join([_render_item(p) for p in e.parts])
    return _render_item(e)


def render_expr(e: GroupExpr) -> str:
    """Canonical text of a group expression, e.g. ``Z ⊕ lex(Z;Q) ⊕ R``."""
    return render_normal(normalize(e))


# ---------------------------------------------------------------------------
# Value towers
# ---------------------------------------------------------------------------

# the slot names of the tower schema, and the atoms they spell
_SLOTS = {"Z": Z, "Q": Q, "R": R}


class ValueTower(tuple):
    """The value group of a valuation ring, as the tuple of its slots: the
    shared atoms ``Z``, ``Q`` and ``R``.  ``from_names`` is the one place
    that checks a slot; every other tower is cut or joined from checked
    ones.

    Slots are listed from the maximal-ideal end (index 0, the "top") to
    the root end.  A tower whose slots are all ``Z`` is order-isomorphic
    to ``Z^n`` ordered lexicographically.  Whether a step of the prime
    chain is branched is not tower data: trees carry it on their nodes
    (``PrimeNode.branched``) and valuations as ``maximal_branched``.
    """

    __slots__ = ()

    @classmethod
    def from_names(cls, names: list[str], where: str = "") -> "ValueTower":
        """The tower of the slot names at the path ``where``."""
        slots = []
        for i, n in enumerate(names):
            if not isinstance(n, str) or n not in _SLOTS:
                raise SchemaError(f"{where}[{i}]", f"unknown tower slot {n!r} (expected Z, Q or R)")
            slots.append(_SLOTS[n])
        return cls(slots)

    def to_expr(self) -> GroupExpr:
        if not self:
            return TRIVIAL
        if len(self) == 1:
            return self[0]
        return LexTower(tuple(self))

    def root_segment(self, depth: int) -> "ValueTower":
        return ValueTower(self[depth:])

    def is_free(self) -> bool:
        """The freeness verdict of the tower, read off its slots: it is
        free exactly when every slot is ``Z``, and a ``Q`` or ``R`` slot is
        a divisible witness, so the verdict is ``Free`` or ``NotFree``,
        never ``Unknown``.  Slots are the shared atoms, and ``tuple.count``
        tests identity before equality, so an all-``Z`` tower is read by
        identity alone."""
        return self.count(Z) == len(self)


def inv_of_valuation(t: ValueTower) -> GroupExpr:
    """The group of invertible ideals of a valuation ring is its value
    group: every invertible ideal there is principal, and principal ideals
    correspond to values, and a tower's expression is a normal form."""
    return t.to_expr()


def div_of_valuation(t: ValueTower, maximal_principal: bool,
                     maximal_branched: bool = True) -> Decision:
    """The group of divisorial ideals of a valuation ring.

    With a branched maximal ideal there are two cases: if the maximal
    ideal is principal, the divisorial group is the whole value group; if
    not, it picks up a real summand next to the value group one step
    down, and in particular cannot be free.  The unbranched case is
    outside this rule and is refused with an ``Unknown`` verdict.
    """
    if len(t) == 0:
        return Decision(Verdict.FREE, (
            CertStep.make("trivial-field",
                          "a field has no nonzero proper ideals; all ideal groups are trivial"),),
            TRIVIAL)
    if not maximal_branched:
        return Decision(Verdict.UNKNOWN, (
            CertStep.make("unbranched-maximal",
                          "the divisorial-group rule needs a branched maximal ideal; "
                          "no verdict is available for the unbranched case"),))
    if maximal_principal:
        expr = inv_of_valuation(t)
        fv = freeness_verdict(expr)
        cert = (CertStep.make("principal-maximal-div",
                              "with a principal maximal ideal every divisorial ideal "
                              "of a valuation ring is principal, so the divisorial "
                              "group equals the value group",
                              value_group=render_expr(expr)),) + fv.certificate
        return Decision(fv.verdict, cert, expr)
    below = t.root_segment(1).to_expr()
    expr = direct_sum(R, below)
    fv = freeness_verdict(expr)
    cert = (CertStep.make("nonprincipal-maximal-div",
                          "with a branched, non-finitely-generated maximal ideal the "
                          "divisorial group is R plus the value group one prime down; "
                          "the real summand is divisible, so the group is not free",
                          result=render_expr(expr)),) + fv.certificate
    return Decision(fv.verdict, cert, expr)


def decide_valuation(t: ValueTower, group: str, maximal_principal: bool | None,
                     maximal_branched: bool) -> Decision:
    """Decide the invertible (``group`` ``"inv"``) or the divisorial
    (``"div"``) group of a valuation ring; an undeclared
    ``maximal_principal`` (``None``) is read off the tower: the maximal
    ideal is principal exactly when the top slot is ``Z``."""
    if group == "div":
        if maximal_principal is None:
            maximal_principal = bool(t) and t[0] is Z
        return div_of_valuation(t, maximal_principal, maximal_branched)
    expr = inv_of_valuation(t)
    fv = freeness_verdict(expr)
    return Decision(fv.verdict, (CertStep.make(
        "valuation-inv-iso",
        "every invertible ideal of a valuation ring is principal; the "
        "invertible group is the value group"),) + fv.certificate, expr, text=fv.text)


def unbranched_valuation_verdict(step_quotients: list[GroupExpr],
                                 all_unbranched: bool) -> Decision:
    """Freeness from step data for a valuation ring with no branched primes.

    If every one-step value group between consecutive primes is free, the
    whole value group is free (a basis is assembled step by step).  The
    rule only fires when every prime is unbranched; note that the
    all-branched situation is served by the separate strongly-discrete
    route in the spectral-tree module -- the two hypotheses differ and the
    two entry points are deliberately kept apart.
    """
    if not all_unbranched:
        return Decision(Verdict.UNKNOWN, (
            CertStep.make("hypothesis-unbranched",
                          "this rule requires that no prime ideal is branched"),))
    if all(freeness_verdict(q).verdict is Verdict.FREE for q in step_quotients):
        return Decision(Verdict.FREE, (
            CertStep.make("unbranched-step-basis",
                          "every one-step value group is free, and their bases "
                          "assemble to a basis of the whole value group",
                          steps=len(step_quotients)),))
    return Decision(Verdict.UNKNOWN, (
        CertStep.make("step-not-certified-free",
                      "some one-step value group could not be certified free"),))
