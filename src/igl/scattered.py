"""Ordinal intervals as compact scattered spaces, and the derived-sequence
decision for one-dimensional domains whose maximal spectrum is scattered.

Ordinals live in Cantor normal form with natural-number exponents, i.e.
below ``w^w`` (``w`` denotes the first infinite ordinal); that is enough
for every space handled here and keeps all arithmetic total.  An
``Ordinal`` is the tuple of its ``(exponent, coefficient)`` terms, whose
tuple order is the ordinal order; ``parse_ordinal`` checks the normal
form of what an instance file gives, and nothing checks it again.  A
space is the closed interval ``[0, bound]`` of ordinals with the order
topology -- always compact and scattered -- together with one
value-tower label per rank stratum: all points of the same
Cantor-Bendixson rank are maximal ideals with the same local value
group.  The derived sequence is a sequence of bounds: what the decision
and ``verify`` read of a derivative is its bound.

* ``cb_derivative`` removes the isolated points: what is left of
  ``[0, a]`` is order-isomorphic to another ordinal interval, whose bound
  it computes by digit surgery on the normal form (``None`` when nothing
  is left).
* ``cb_rank`` and ``stratum_size`` read the rank and the size of every
  stratum straight off the normal-form digits of the bound, a size as a
  value: an integer, or the ``Ordinal`` of an infinite count, which
  ``stratum_multiplicity`` renders off the bound's shifted terms, with no
  derivative built.  The derivative stays the definition they are tested
  against: ``check_space``, ``verify``'s checks of a space, compares its
  sizes with them as values.
* ``decide_scattered`` uses the derived sequence to decide what the group
  of invertible ideals of a modeled one-dimensional domain looks like:
  scattered means the transfinite removal of locally-free stages
  exhausts the family, giving a direct sum over the maximal ideals.
  Strata with equal labels share one tower (the parser keeps one per
  distinct slot list), each distinct tower's expression, freeness
  (``ValueTower.is_free``) and verdict text is read once, and the sum is
  one ``normal_sum`` of parts that are already normal.  A stratum costs
  the parse one label key, and decide and ``verify`` one pass each over
  the bound's terms.
* ``escape_index`` locates the first stage at which a finitely generated
  ideal blows up along the derived sequence; that stage can never be a
  limit ordinal, and traces claiming otherwise are rejected.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .errors import MalformedTraceError, SchemaError
from .valgroup import (CertStep, Check, Decision, Q, Repeated, TRIVIAL, ValueTower, Verdict,
                       Z, agree, normal_sum, render_normal)
# not called here: bench/checks.py counts the namespaces that bind it, and
# only a change to the benchmark may lower that count (ROADMAP F1)
from .valgroup import freeness_verdict  # noqa: F401


# ---------------------------------------------------------------------------
# Ordinals below w^w
# ---------------------------------------------------------------------------

class Ordinal(tuple):
    """Cantor normal form ``w^e1*c1 + ... + w^ek*ck`` with strictly
    decreasing natural exponents and positive coefficients, as the tuple
    of its ``(exponent, coefficient)`` terms; zero is the empty tuple, and
    so is falsy: a bound is tested with ``is not None``.  Tuple order is
    the ordinal order: the first term that differs decides, by exponent
    and then by coefficient, and a proper prefix is the smaller ordinal.
    The terms are not checked here: ``parse_ordinal`` checks what comes
    from outside, and every ordinal built from one is normal by
    construction."""

    __slots__ = ()

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "Ordinal":
        return cls()

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        return cls(((0, n),) if n else ())

    @classmethod
    def omega_power(cls, e: int, coeff: int = 1) -> "Ordinal":
        return cls(((e, coeff),))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self

    def is_finite(self) -> bool:
        return not self or (len(self) == 1 and self[0][0] == 0)

    def as_int(self) -> int:
        """The value of a finite ordinal."""
        return self[0][1] if self else 0

    def is_limit(self) -> bool:
        return bool(self) and self[-1][0] > 0

    def is_successor(self) -> bool:
        return bool(self) and self[-1][0] == 0

    def successor(self) -> "Ordinal":
        if self.is_successor():
            e, c = self[-1]
            return Ordinal(self[:-1] + ((0, c + 1),))
        return Ordinal(self + ((0, 1),))

    def leading_exponent(self) -> int:
        return self[0][0] if self else 0

    # -- text -----------------------------------------------------------------

    def render(self, shift: int = 0) -> str:
        """``w^e*c`` per term, with ``^1``, ``*1`` and a zero exponent's
        ``w`` left out; ``0`` for zero.  A ``shift`` renders the terms
        ``w^(e-shift)*c`` with ``e >= shift``, the ``shift``-th derivative's
        bound when ``shift`` is below the leading exponent."""
        bits = []
        for e, c in self:
            e -= shift
            if e > 1:
                bits.append(f"w^{e}" if c == 1 else f"w^{e}*{c}")
            elif e == 1:
                bits.append("w" if c == 1 else f"w*{c}")
            elif e == 0:
                bits.append(str(c))
            else:
                break
        return "+".join(bits) or "0"


_ORD_TERM = re.compile(r"^(?:w(?:\^(\d+))?(?:\*(\d+))?|(\d+))$")

# integers in ordinal strings and stratum keys: at most this many digits
MAX_DIGITS = 1000


def parse_digits(digits: str, chunk: str) -> int:
    """A decimal integer of at most ``MAX_DIGITS`` digits, read from the
    ordinal term ``chunk``; the term is formatted only for the error."""
    if len(digits) > MAX_DIGITS:
        raise SchemaError(f"ordinal term {chunk[:20]!r}: more than {MAX_DIGITS} digits")
    return int(digits)


def parse_ordinal(text: str) -> Ordinal:
    """Parse the ordinal grammar used by instance files: terms ``w^k*m``,
    ``w^k``, ``w*m``, ``w`` and plain integers, joined by ``+``.  Every
    term is read before the normal form is checked: positive coefficients
    and strictly decreasing exponents (``w`` is the first infinite
    ordinal).  This is the one place that checks a normal form."""
    text = text.replace(" ", "")
    if text == "0":
        return Ordinal.zero()
    terms: list[tuple[int, int]] = []
    for chunk in text.split("+"):
        m = _ORD_TERM.match(chunk)
        if not m:
            raise SchemaError(f"cannot parse ordinal term {chunk!r}")
        if m.group(3) is not None:
            terms.append((0, parse_digits(m.group(3), chunk)))
        else:
            e = parse_digits(m.group(1), chunk) if m.group(1) else 1
            c = parse_digits(m.group(2), chunk) if m.group(2) else 1
            terms.append((e, c))
    for i, (e, c) in enumerate(terms):
        if c < 1 or (i and e >= terms[i - 1][0]):
            why = "bad normal-form term" if c < 1 else "exponents must strictly decrease"
            raise SchemaError(f"not a normal form: {text!r} ({why})")
    return Ordinal(terms)


# ---------------------------------------------------------------------------
# Scattered spaces
# ---------------------------------------------------------------------------

class ScatteredSpace(namedtuple("ScatteredSpace", "bound labels")):
    """The interval ``[0, bound]`` with one value tower per occupied
    stratum, shared by all points of that rank: ``labels[k]`` is the tower
    of stratum ``k``, for ``k`` up to the leading exponent of the bound.
    ``interval`` checks the labels once."""

    __slots__ = ()

    @classmethod
    def interval(cls, bound: Ordinal, labels: dict[int, ValueTower]) -> "ScatteredSpace":
        """``[0, bound]`` labelled by stratum; keys above the leading
        exponent of ``bound`` are ignored, and the first missing one is named."""
        try:
            return cls(bound, tuple(map(labels.__getitem__, range(bound.leading_exponent() + 1))))
        except KeyError as missing:  # its text is the stratum
            raise SchemaError("labels", f"missing label for occupied stratum {missing}") from None


def cb_derivative(a: Ordinal) -> Ordinal | None:
    """The bound of what is left of ``[0, a]`` once its isolated points
    are removed, or ``None`` when nothing is left.

    The limit points of ``[0, a]`` are its limit ordinals, i.e. ``w*b``
    for ``1 <= b <= q``, with ``q`` the terms of ``a`` of positive
    exponent, each exponent lowered by one; re-indexing by ``b`` makes the
    derivative an interval again: empty when ``q`` is zero, ``[0, q-1]``
    for finite ``q``, and ``[0, q]`` for infinite ``q`` (the shift is
    absorbed).  Either way the leading exponent drops by one, and a step
    costs a pass over the terms of the bound."""
    lead = a.leading_exponent()
    if lead == 0:
        return None
    if lead == 1:
        return Ordinal.from_int(a[0][1] - 1)
    return Ordinal([(e - 1, c) for e, c in a if e])


def cb_rank(a: Ordinal) -> Ordinal:
    """The least number of derivatives after which nothing is left of
    ``[0, a]``.

    In closed form: for ``a = w^e1*c1 + ... + w^en*cn`` this is
    ``e1 + 1``.  ``cb_derivative`` stays the definition; iterating it to
    ``None`` takes exactly this many steps."""
    return Ordinal.from_int(a.leading_exponent() + 1)


def stratum_size(a: Ordinal, k: int) -> int | Ordinal:
    """How many points of rank ``k >= 0`` ``[0, a]`` has: the isolated
    points of the ``k``-th derivative.  Finite counts are integers; an
    infinite count is the ordinal bound of that derivative (there are
    ``b``-many isolated points in ``[0, b]`` for infinite ``b``).

    In closed form, read off the normal form ``a = w^e1*c1 + ... +
    w^en*cn``, with ``K = e1``:

    * ``0`` for ``k > K``;
    * ``n + 1`` for a finite bound ``n`` (so ``1`` for ``[0, 0]``);
    * ``c1`` for ``k == K >= 1``: the ``K``-th derivative is
      ``[0, c1 - 1]``;
    * for ``k < K``, the ``k``-th derivative is ``[0, b]`` with ``b`` the
      terms ``w^(e-k)*c`` of ``a`` with ``e >= k``.

    Each value costs a pass over the terms of ``a``, not ``k``
    derivatives."""
    # the zero bound is the finite bound 0: one point
    lead, coeff = a[0] if a else (0, 0)
    if k > lead:
        return 0
    if lead == 0:
        return coeff + 1
    if k == lead:
        return coeff
    return a if k == 0 else Ordinal([(e - k, c) for e, c in a if e >= k])


def stratum_multiplicity(a: Ordinal, k: int) -> int | str:
    """``stratum_size`` as a report writes it: an integer, or the text of
    the ordinal bound of the ``k``-th derivative, rendered straight off
    the terms of ``a`` shifted by ``k``."""
    return a.render(k) if a and k < a[0][0] else stratum_size(a, k)


def _derived_walk_fault(bound: Ordinal, rank: int) -> str | None:
    """How the derived sequence of ``[0, bound]`` departs from the closed
    forms that decide uses, or ``None``.  It replays the definition: the
    k-th derivative's isolated points are stratum k, their sizes compared
    as ``stratum_size`` values (nothing is rendered), each derivative has
    fewer strata (a lower leading exponent) than the interval it came
    from, and the walk has ``rank`` steps."""
    cur = bound
    steps = 0
    while cur is not None:
        if stratum_size(cur, 0) != stratum_size(bound, steps):
            return f"stratum {steps} size differs from its closed form"
        top = cur.leading_exponent()
        cur = cb_derivative(cur)
        steps += 1
        if cur is not None and cur.leading_exponent() >= top:
            return "strata grew under the derivative"
    return None if steps == rank else "derived sequence length differs from the rank"


def check_space(space: ScatteredSpace) -> list[Check]:
    """``verify``'s checks of a space: the closed-form rank against the
    bound's leading exponent, and the derived walk against the closed forms."""
    rank = cb_rank(space.bound)
    lead = space.bound.leading_exponent()
    fault = _derived_walk_fault(space.bound, rank.as_int())
    return [agree("rank-consistent", rank.as_int(), lead + 1,
                  f"rank {rank.render()} = leading exponent + 1",
                  f"rank {rank.render()} != leading exponent + 1 = {lead + 1}"),
            agree("derived-sequence-monotone", fault, None,
                  "strata shrink along the derived sequence", fault)]


# ---------------------------------------------------------------------------
# The derived-sequence decision
# ---------------------------------------------------------------------------

def decide_scattered(s: ScatteredSpace) -> Decision:
    """Decide the shape of the invertible-ideal group of a one-dimensional
    domain whose maximal spectrum is this scattered space, each maximal
    ideal carrying its stratum's value group.  The Cantor-Bendixson rank
    goes into ``metadata["cb_rank"]``.

    * every label free: the derived sequence removes locally free stages
      until nothing is left, so the group is the direct sum of the local
      value groups over all maximal ideals (``DirectSumFree``);
    * finite space: the family is finite, the sum decomposition holds
      unconditionally (``DirectSumFree`` or ``DirectSum``);
    * a rational label on a limit stratum while every isolated point is
      discrete: the candidate quotient is divisible but the group has no
      nonzero divisible elements, so the decomposition fails
      (``Obstructed``);
    * anything else: ``Unknown``.

    A stratum's part is its tower's expression alone when the stratum
    has one point and repeated otherwise; either is a normal form, so
    the parts are summed with ``normal_sum``, not normalized again.
    """
    a = s.bound
    rank = cb_rank(a).render()
    meta = {"cb_rank": rank}
    exprs = {t: t.to_expr() for t in dict.fromkeys(s.labels)}
    parts = []
    for k, t in enumerate(s.labels):
        base = exprs[t]
        times = stratum_multiplicity(a, k)
        parts.append(base if times == 1 or base is TRIVIAL else Repeated(base, times))
    expr = normal_sum(parts)
    text = render_normal(expr)
    sum_step = CertStep.make(
        "scattered-sharp-sum",
        "the space is scattered, so the derived sequence exhausts the "
        "family; the candidate decomposition is the direct sum of the "
        "local value groups over the maximal ideals",
        rank=rank, expr=text)

    def decided(verdict: Verdict, step: CertStep) -> Decision:
        return Decision(verdict, (sum_step, step), expr, meta, text)

    # a tower is free or not, never undecided: its slots are Z, Q and R
    free, not_free = Verdict.FREE.value, Verdict.NOT_FREE.value
    texts = {t: free if t.is_free() else not_free for t in exprs}
    if not_free not in texts.values():
        return decided(Verdict.DIRECT_SUM_FREE, CertStep.make(
            "all-stage-groups-free",
            "every removed stage consists of maximal ideals with free value "
            "groups, so each stage splits off a free direct summand and the "
            "total group is free"))

    verdicts = dict(enumerate(map(texts.__getitem__, s.labels)))
    if a.is_finite():
        return decided(Verdict.DIRECT_SUM, CertStep.make(
            "finite-jaffard-sum",
            "a finite family of localizations is complete, independent and "
            "locally finite, so the decomposition holds regardless of "
            "freeness; the summand verdicts are recorded per stratum",
            strata=verdicts))

    # with stratum 0 a Z, the distinct towers tell what the limit strata hold
    if s.labels[0] == (Z,) and (Q,) in texts and all(t in ((Z,), (Q,)) for t in texts):
        return decided(Verdict.OBSTRUCTED, CertStep.make(
            "divisible-quotient-obstruction",
            "the removal sequence ends in a surjection onto the rationals, "
            "every element of which is divisible; but an invertible ideal has "
            "a nonzero value at some discrete isolated point, so the group has "
            "no nonzero divisible elements and the decomposition fails",
            limit_stratum=s.labels.index((Q,))))
    return decided(Verdict.UNKNOWN, CertStep.make(
        "stage-group-not-free",
        "some removed stage has a value group not certified free; the "
        "derived-sequence argument does not conclude",
        strata=verdicts))


# ---------------------------------------------------------------------------
# Escape stages
# ---------------------------------------------------------------------------

def escape_index(trace: list[tuple[Ordinal, bool]]) -> Ordinal:
    """The first stage at which an ideal blows up along the derived
    sequence of overrings.

    The trace samples stages of the increasing sequence; survival is
    downward closed (once blown up, always blown up), so the samples must
    read as trues followed by falses.  The first false stage is returned.
    It must be a successor: a finitely generated ideal that blows up at a
    limit stage already blows up at some earlier stage, since its finitely
    many generators and cogenerators appear at an earlier ring of the
    union.  Traces violating monotonicity, failing at stage zero, or
    claiming a first failure at a limit ordinal are rejected.
    """
    if not trace:
        raise MalformedTraceError("empty trace")
    stages = [st for st, _ in trace]
    for a, b in zip(stages, stages[1:]):
        if not a < b:
            raise MalformedTraceError("stages must strictly increase")
    flags = [ok for _, ok in trace]
    seen_false = False
    for ok in flags:
        if seen_false and ok:
            raise MalformedTraceError(
                "non-monotone trace: survival reappears after a failure")
        seen_false = seen_false or not ok
    if not seen_false:
        raise MalformedTraceError("the ideal never blows up in this trace")
    first_false = next(st for st, ok in trace if not ok)
    if first_false.is_zero():
        raise MalformedTraceError(
            "failure at stage zero contradicts the ideal being proper")
    if first_false.is_limit():
        raise MalformedTraceError(
            f"first failure at the limit stage {first_false.render()} is "
            "impossible for a finitely generated ideal")
    return first_false
