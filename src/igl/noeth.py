"""Freeness of ideal groups of one-dimensional local Noetherian domains
from conductor and residue-field data.

The input is not a ring but its arithmetic shadow: the residue field
``k``, the maximal ideals of the integral closure with their conductor
exponents ``(L_1, e_1), ..., (L_n, e_n)``, and two flags (integrally
closed; conductor nonzero).  Residue fields are either honest finite
fields, whose unit groups are computed, or opaque labels carrying
declared unit-group properties that are echoed into certificates.
Over finite fields the unit quotient ``(⊕ U(L_i))/U(k)`` is one
invariant-factor rule on the unit orders, for one branch or several.

The verdict is the ``freeness_verdict`` of the principal-ideal group,
the closure's free principal group plus a unit quotient that follows
the three conductor cases:

* some exponent exceeds one (non-radical conductor): never free -- the
  unit quotient contains a nonzero quotient of a residue-field vector
  space, and the additive group of a field has no free quotients;
* one branch with exponent one: free exactly when ``U(L_1)/U(k)`` is;
* several branches, all exponents one: free exactly when every ``U(L_i)``
  is free with ``U(k)`` a direct summand -- and a residue characteristic
  other than 2 already rules freeness out, since ``-1`` is torsion, as
  does a finite residue field with nontrivial units, since ``U(k)`` is a
  subgroup of every ``U(L_i)``.

Krull-type inputs (integrally closed and beyond) short-circuit: their
divisorial, invertible and principal groups are free on the height-one
primes.  ``check_noeth`` and ``check_krull`` are ``verify``'s checks.

The records here are named tuples that check nothing:
``cli.parse_field_desc``, ``cli.parse_noeth`` and ``cli.parse_krull``
check each fact that an instance file supplies, once, with
``_is_prime`` and ``PRIME_BOUND`` from here.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .abelian import FgGroup, FgHom, cokernel
from .errors import PreconditionError
from .matrices import IntMatrix
from .valgroup import (CertStep, Check, Cyclic, Decision, GroupExpr, Opaque, Repeated, TRIVIAL,
                       Verdict, agree, canonical_invariants, direct_sum, expr_invariant_factors,
                       fg_expr, freeness_verdict)


# Characteristics must lie below this bound: Miller-Rabin with the prime
# bases up to 41 is exact for every n below it (Sorenson and Webster 2015;
# the bound itself is the least strong pseudoprime to all thirteen bases).
PRIME_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Exact primality for ``n < PRIME_BOUND``: deterministic Miller-Rabin."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FiniteField(namedtuple("FiniteField", "p r", defaults=(1,))):
    """The field with ``p^r`` elements; its unit group is cyclic of order
    ``p^r - 1`` and is computed, never declared."""

    __slots__ = ()

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def order(self) -> int:
        return self.p ** self.r

    @property
    def unit_order(self) -> int:
        return self.order - 1

    @property
    def label(self) -> str:
        return f"F{self.order}"


class OpaqueField(namedtuple("OpaqueField", "label characteristic unit_free quotient_free summand",
                             defaults=(0, None, None, None))):
    """A field known only through declarations.

    ``unit_free`` declares whether the unit group is free;
    ``quotient_free`` whether ``U(self)/U(base)`` is free for the
    instance's base field; ``summand`` whether the base's unit group sits
    as a direct summand.  Unset declarations leave verdicts ``Unknown``.
    """

    __slots__ = ()


FieldDesc = FiniteField | OpaqueField


def unit_group(f: FieldDesc) -> GroupExpr:
    """The unit group of a field description as a symbolic group.

    Finite fields give explicit cyclic groups.  Opaque fields give an
    opaque atom; in characteristic other than 2 the element ``-1`` is
    torsion, which the atom records, so the freeness verdict is NotFree
    without further declarations.
    """
    if isinstance(f, FiniteField):
        return Cyclic(f.unit_order) if f.unit_order > 1 else TRIVIAL
    torsionfree = False if f.characteristic != 2 else None
    return Opaque(f"U({f.label})", is_free=f.unit_free, is_torsionfree=torsionfree)


Branch = namedtuple("Branch", "field e")


class NoethInstance(namedtuple("NoethInstance", "residue branches integrally_closed "
                                                 "conductor_nonzero local",
                               defaults=(False, True, True))):
    """Conductor data of a one-dimensional local Noetherian domain with
    reduced completion (nonzero conductor)."""

    __slots__ = ()

    @property
    def characteristic(self) -> int:
        return self.residue.characteristic

    def all_finite(self) -> bool:
        """Whether the residue field and every branch field are finite."""
        return isinstance(self.residue, FiniteField) and all(
            isinstance(b.field, FiniteField) for b in self.branches)

    def case(self) -> str:
        if self.integrally_closed:
            return "integrally-closed"
        if any(b.e > 1 for b in self.branches):
            return "a"
        return "b" if len(self.branches) == 1 else "c"


# ---------------------------------------------------------------------------
# Per-branch unit-group facts
# ---------------------------------------------------------------------------

def _quotient_free(k: FieldDesc, L: FieldDesc) -> str:
    """Why ``U(L)/U(k)`` is or is not free: computed for finite fields,
    declared for opaque ones."""
    if isinstance(k, FiniteField) and isinstance(L, FiniteField):
        return (f"U({L.label})/U({k.label}) is cyclic of order "
                f"{L.unit_order // k.unit_order}; a finite group is free only when trivial")
    if isinstance(L, OpaqueField) and L.quotient_free is not None:
        return f"declared: U({L.label})/U(k) free={L.quotient_free}"
    return "no declaration for the unit quotient; verdict stays open"


def _unit_free(k: FieldDesc, f: FieldDesc) -> tuple[bool | None, str]:
    """Is ``U(f)`` free, for ``f`` over ``k``?  A computed fact beats a declaration."""
    if isinstance(f, FiniteField):
        free = f.unit_order == 1
        return free, f"U({f.label}) is cyclic of order {f.unit_order}"
    if f.characteristic != 2:
        return False, f"characteristic {f.characteristic or 0} != 2: -1 is torsion in U({f.label})"
    if f.unit_free is False:
        return False, f"declared: U({f.label}) free=False"
    if isinstance(k, FiniteField) and k.unit_order > 1:
        # k is a subfield of f, so U(f) holds the torsion of U(k)
        return False, f"U({f.label}) contains U({k.label}), cyclic of order {k.unit_order}"
    if f.unit_free is not None:
        return True, f"declared: U({f.label}) free=True"
    return None, f"no declaration for U({f.label})"


def _summand(k: FieldDesc, L: FieldDesc) -> tuple[bool | None, str]:
    if isinstance(k, FiniteField) and isinstance(L, FiniteField):
        m, n = k.unit_order, L.unit_order
        if n == 1:
            return True, "trivial unit group is a summand of itself"
        ok = gcd(m, n // m) == 1
        return ok, (f"cyclic orders {m} | {n}: a summand exists iff "
                    f"gcd({m}, {n // m}) = 1")
    if isinstance(L, OpaqueField) and L.summand is not None:
        return L.summand, f"declared: U(k) summand of U({L.label})={L.summand}"
    return None, f"no summand declaration for U({L.label})"


# ---------------------------------------------------------------------------
# The main decision
# ---------------------------------------------------------------------------

def decide_noeth(inst: NoethInstance) -> Decision:
    """Decide freeness of the invertible-ideal group (principal-ideal
    group when the instance is not local) from conductor data.  The
    expression is the principal-ideal group, the closure's principal
    group plus the unit quotient, and the verdict is that expression's
    ``freeness_verdict``; the certificate records the conductor case
    that shaped the expression.  The conductor case and the group
    decided (``Inv`` for local instances, ``Princ`` otherwise) go into
    ``metadata``.  A zero conductor is refused with ``PreconditionError``."""
    expr = direct_sum(Opaque("Princ(closure)", is_free=True), unit_quotient_seq(inst))
    steps: list[CertStep] = []
    if not inst.local:
        steps.append(CertStep.make(
            "nonlocal-scope",
            "for a non-local ring only the principal-ideal group inherits the "
            "unit-quotient verdict; the invertible group may differ"))
    case = inst.case()
    if case == "integrally-closed":
        steps.append(CertStep.make(
            "integrally-closed",
            "an integrally closed one-dimensional local Noetherian domain is a "
            "discrete valuation ring, hence Krull; all its ideal groups are free"))
        steps.extend(krull_verdict("krull").certificate)
    elif case == "a":
        steps.append(CertStep.make(
            "conductor-not-radical",
            "a repeated conductor factor makes the unit quotient contain a "
            "nonzero quotient of a residue-field vector space; the additive "
            "group of a field has no nonzero free quotients, so the group "
            "is not free",
            exponents=[b.e for b in inst.branches]))
    elif case == "b":
        steps.append(CertStep.make(
            "conductor-maximal",
            "with a radical conductor that is the closure's only maximal "
            "ideal, the group is free exactly when the residue unit quotient "
            "U(L)/U(k) is free",
            detail=_quotient_free(inst.residue, inst.branches[0].field)))
    elif inst.characteristic != 2:
        # case "c": several branches, radical conductor
        steps.append(CertStep.make(
            "residue-char-not-two",
            "with several branches, freeness forces every residue unit group "
            "to be free, hence the residue characteristic to be 2; here it "
            "is not",
            characteristic=inst.characteristic))
    else:
        for i, b in enumerate(inst.branches):
            steps.append(CertStep.make(
                "branch-units",
                "the group is free exactly when every branch has a free unit "
                "group containing the residue units as a direct summand",
                branch=i, unit_free=_unit_free(inst.residue, b.field)[1],
                summand=_summand(inst.residue, b.field)[1]))
    fv = freeness_verdict(expr)
    return Decision(fv.verdict, tuple(steps), expr, text=fv.text,
                    metadata={"case": case, "target_group": "Inv" if inst.local else "Princ"})


# ---------------------------------------------------------------------------
# The unit quotient
# ---------------------------------------------------------------------------

def unit_quotient_seq(inst: NoethInstance) -> GroupExpr:
    """The unit quotient ``U(closure)/U(D)``, rewritten modulo the
    conductor and, for several branches, expanded through the
    amalgamated-quotient isomorphism.  The principal-ideal group is the
    closure's principal group plus this quotient: the closure is Krull,
    so its principal group is free and the sequence onto it splits.
    Over finite fields the quotient ``(⊕ Z/n_i)/Z/m`` is read off the
    invariant factors of the branch unit groups, with no factoring and
    no matrix; ``check_noeth`` recomputes it through the integer engine."""
    if not inst.conductor_nonzero:
        raise PreconditionError(
            "zero conductor (analytically ramified): outside this decision's hypotheses")
    case = inst.case()
    if case == "integrally-closed":
        return TRIVIAL
    if case == "a":
        char = inst.characteristic
        return Opaque("U(closure)/U(D) [non-radical conductor]",
                      is_free=False,
                      is_torsionfree=False if char > 0 else None,
                      has_divisible=True if char == 0 else None)
    k = inst.residue
    if inst.all_finite():
        # (⊕ Z/n_i)/Z/m with m | n_i: the sweep leaves each prime's least
        # exponent in d_1, and the diagonal image lowers exactly that one
        # by v_p(m), so the quotient is Z/(d_1/m) ⊕ Z/d_2 ⊕ ... ⊕ Z/d_b;
        # an m > 1 divides every n_i, so the chain then has all b entries
        m = k.unit_order
        chain = canonical_invariants([b.field.unit_order for b in inst.branches])
        if m > 1:
            chain = (chain[0] // m,) + chain[1:]
        return fg_expr(chain)
    if case == "b":
        L = inst.branches[0].field
        qf = L.quotient_free if isinstance(L, OpaqueField) else None
        return Opaque(f"U({L.label})/U({k.label})", is_free=qf)
    # case "c"
    facts = [(_unit_free(k, b.field)[0], _summand(k, b.field)[0]) for b in inst.branches]
    if any(False in f for f in facts):
        # a branch without a free unit group holding U(k) as a summand
        # makes the quotient not free
        return Opaque("U(closure)/U(D)", is_free=False)
    parts: list[GroupExpr] = [
        Opaque(f"U({b.field.label})/U({k.label}) complement",
               is_free=True if f == (True, True) else None)
        for b, f in zip(inst.branches, facts)]
    units = unit_group(k)
    if isinstance(units, Opaque) and any(uf for uf, _ in facts):
        # U(k) is a subgroup of a free U(L_i), and subgroups of free
        # abelian groups are free
        units = units._replace(is_free=True)
    parts.append(Repeated(units, len(inst.branches) - 1))
    return direct_sum(*parts)


# conductor case -> (label, detail) of the finite-field unit-quotient check
_UNIT_QUOTIENT_CHECKS = {
    "b": ("quotient-crosscheck", "residue unit quotient cross-checked"),
    "c": ("amalgam-crosscheck", "matches the amalgamated-quotient computation"),
}


def check_noeth(inst: NoethInstance) -> list[Check]:
    """``verify``'s checks of conductor data: the unit quotient, over finite
    fields in cases b and c recomputed, apart from ``unit_quotient_seq``'s
    invariant-factor rule, as the engine's cokernel of ``Z/m → ⊕ Z/n_i``."""
    quotient = unit_quotient_seq(inst)
    case = inst.case()
    checks = [("sequence-computed", True, f"case {case}")]
    fin = inst.all_finite()
    if fin and case in _UNIT_QUOTIENT_CHECKS:
        label, detail = _UNIT_QUOTIENT_CHECKS[case]
        m = inst.residue.unit_order
        orders = [b.field.unit_order for b in inst.branches]
        # the generator of Z/m goes to (n_i/m)·generator in each Z/n_i
        diag = IntMatrix.from_rows([[n // m] for n in orders], cols=1)
        emb = FgHom(FgGroup.cyclic(m), FgGroup.from_invariants(*orders), diag)
        checks.append(agree(label, cokernel(emb).invariant_factors,
                            expr_invariant_factors(quotient), detail))
    else:
        checks.append(("unit-crosscheck", True, f"skipped: no finite unit quotient in case {case}"
                       if fin else "skipped: opaque declarations are trusted inputs"))
    return checks


# ---------------------------------------------------------------------------
# Krull verdicts
# ---------------------------------------------------------------------------

def krull_verdict(kind: str) -> Decision:
    """All three ideal groups of a Krull-type domain are free, with the
    height-one primes as a basis of the divisorial group; the per-group
    verdicts and the basis go into ``metadata``.  ``kind`` is ``"krull"``,
    ``"dedekind"`` or ``"UFD"``."""
    steps = [CertStep.make(
        "krull-free-basis",
        "for a Krull domain the divisorial group is free on the height-one "
        "primes; the invertible and principal groups are subgroups, and "
        "subgroups of free groups are free")]
    if kind == "dedekind":
        steps.append(CertStep.make(
            "dedekind-specialization",
            "a Dedekind domain is a one-dimensional Krull domain"))
    elif kind == "UFD":
        steps.append(CertStep.make(
            "factorial-specialization",
            "in a factorial domain every height-one prime is principal"))
    free = Verdict.FREE.value
    return Decision(Verdict.FREE, tuple(steps), metadata={
        "groups": {"Div": free, "Inv": free, "Princ": free},
        "basis": "height-one primes"})


def check_krull(variant: str) -> list[Check]:
    """``verify``'s check of a Krull-type instance: every variant's groups
    are free on the height-one primes, so there is nothing to recompute."""
    return [("all-groups-free", True, "height-one basis")]
